package mpdata

import (
	"fmt"
	"math/rand"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// fusedTestEnv builds an environment with randomized positive inputs and
// every stage field populated by the generic (boundary-checked) kernels, so
// fused kernels can be compared against their members on realistic data.
func fusedTestEnv(t *testing.T, kp *stencil.KernelProgram, domain grid.Size, bc stencil.Boundary) *stencil.Env {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	state := NewState(domain)
	for n := range state.Psi.Data {
		state.Psi.Data[n] = 0.1 + rng.Float64()
		state.U1.Data[n] = 0.4 * (rng.Float64() - 0.5)
		state.U2.Data[n] = 0.4 * (rng.Float64() - 0.5)
		state.U3.Data[n] = 0.4 * (rng.Float64() - 0.5)
		state.H.Data[n] = 1 + 0.2*rng.Float64()
	}
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		t.Fatal(err)
	}
	env.BC = bc
	whole := grid.WholeRegion(domain)
	for s := range kp.Stages {
		kp.Kernels[s](env, whole)
	}
	return env
}

func TestMPDATAFusionPlanIsSevenGroups(t *testing.T) {
	kp := NewProgram()
	fp, err := stencil.PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"f1", "f2", "f3"},
		{"psiStar"},
		{"psiMax", "psiMin", "v1", "v2", "v3"},
		{"fluxIn", "fluxOut"},
		{"betaUp", "betaDn"},
		{"g1", "g2", "g3"},
		{"psiNew"},
	}
	if len(fp.Groups) != len(want) {
		t.Fatalf("MPDATA fuses into %d groups, want %d", len(fp.Groups), len(want))
	}
	for gi, names := range want {
		g := fp.Groups[gi]
		if len(g.Stages) != len(names) {
			t.Fatalf("group %d has %d members, want %v", gi, len(g.Stages), names)
		}
		for mi, s := range g.Stages {
			if got := kp.Stages[s].Name; got != names[mi] {
				t.Fatalf("group %d member %d = %q, want %q", gi, mi, got, names[mi])
			}
		}
	}
}

func TestDefaultProgramRegistersFusedKernels(t *testing.T) {
	kp := NewProgram()
	if len(kp.Fused) != 8 {
		t.Fatalf("default program registers %d fused kernels, want 8", len(kp.Fused))
	}
	fp, err := stencil.PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fp.CompileGroups(kp)
	if err != nil {
		t.Fatal(err)
	}
	// Every MPDATA stage has a split form, so no group is generic-only and
	// every group carries a fast kernel covering all its members.
	for gi, ge := range groups {
		if ge.Fast == nil {
			t.Fatalf("group %d has no fast kernel", gi)
		}
		if len(ge.Generic) != 0 {
			t.Fatalf("group %d has unexpected generic members %v", gi, ge.Generic)
		}
		if len(ge.FastMembers) != len(fp.Groups[gi].Stages) {
			t.Fatalf("group %d fast members %v do not cover %v", gi, ge.FastMembers, fp.Groups[gi].Stages)
		}
	}
}

// TestFusedKernelsMatchMemberFastPaths verifies each registered hand-fused
// kernel, scalar body and vector body, is bit-identical to running its member
// stages' fast paths, on the interior and on pinned border pieces under both
// boundary conditions.
func TestFusedKernelsMatchMemberFastPaths(t *testing.T) {
	domain := grid.Sz(9, 7, 6)
	for _, vector := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "vector"}[vector], func(t *testing.T) {
			kp := programWithBody(t, vector)
			for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
				env := fusedTestEnv(t, kp, domain, bc)
				for fi := range kp.Fused {
					interior, pieces := stencil.BorderPieces(grid.WholeRegion(domain), fusedExtent(kp, &kp.Fused[fi]), domain)
					what := fmt.Sprintf("bc=%v", bc)
					diffFused(t, kp, fi, env, env, interior, what)
					for _, pc := range pieces {
						diffFused(t, kp, fi, env, env.BindPiece(pc), pc.Region, what)
					}
				}
			}
		})
	}
}
