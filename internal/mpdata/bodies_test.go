package mpdata_test

import (
	"math"
	"strings"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/stream"
	"islands/internal/topology"
)

// forEachBody runs fn once per fused-kernel body, the programs built inside
// it bound to that body: the layers above mpdata cannot choose one, so this
// is where their results are pinned under both.
func forEachBody(t *testing.T, fn func(t *testing.T)) {
	for _, vector := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "vector"}[vector], func(t *testing.T) {
			if vector && !mpdata.VectorAvailable() {
				t.Skip("no AVX2 bodies in this build or on this CPU")
			}
			mpdata.WithBody(vector, func() { fn(t) })
		})
	}
}

func requireSameBits(t *testing.T, what string, got, want *grid.Field) {
	t.Helper()
	for n := range want.Data {
		if math.Float64bits(got.Data[n]) != math.Float64bits(want.Data[n]) {
			t.Fatalf("%s: cell %d is %v, the sequential reference has %v", what, n, got.Data[n], want.Data[n])
		}
	}
}

// TestEnginesMatchReferenceUnderBothBodies runs the compiled executor and the
// out-of-core streamer on the standard problem with the fused kernels on
// either body, and requires the sequential reference's field — per-stage
// scalar kernels, never a fused one — bit for bit. NK = 9 gives interior rows
// of 7 cells: one whole vector and a three-cell tail.
func TestEnginesMatchReferenceUnderBothBodies(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := solver.Lookup("mpdata")
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(24, 12, 9)
	const steps = 4
	forEachBody(t, func(t *testing.T) {
		for _, opt := range []solver.Options{{}, {IORD: 3}, {Unlimited: true}} {
			for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
				prog, err := entry.NewProgram(opt)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := entry.NewProblemState(domain)
				if err != nil {
					t.Fatal(err)
				}
				if err := solver.SequentialReference(prog, ref, steps, bc); err != nil {
					t.Fatal(err)
				}
				for _, cfg := range []exec.Config{
					{Strategy: exec.Original},
					{Strategy: exec.Plus31D, BlockI: 5},
					{Strategy: exec.IslandsOfCores},
					{Strategy: exec.IslandsOfCores, CoreIslands: true},
					{Strategy: exec.IslandsOfCores, KSteps: 2},
				} {
					// A k-step block is one whole Run: steps/k Runs of it.
					cfg.Machine, cfg.Boundary, cfg.Steps = machine, bc, max(cfg.KSteps, 1)
					st, err := entry.NewProblemState(domain)
					if err != nil {
						t.Fatal(err)
					}
					r, err := exec.NewRunner(cfg, prog, st.Inputs, st.Feedback)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < steps/cfg.Steps && err == nil; i++ {
						err = r.Run()
					}
					r.SyncFeedback()
					r.Close()
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, cfg.Strategy.String(), st.Output(), ref.Output())
				}
				if opt != (solver.Options{}) {
					continue
				}
				s, err := stream.New(stream.Options{
					Dir:    t.TempDir(),
					Exec:   exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: bc, Steps: steps, KSteps: 2},
					Domain: domain, TilePlanes: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				got, err := s.ReadResult()
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "streamed", got, ref.Output())
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// TestOutOfRangeRegionFailsTheSchedule: a fused kernel handed a region past
// the domain's last plane fails its wrapper's bounds proof in Go, and the
// runner reports that like any other kernel panic — an error from Run, the
// teams unwound — on either body.
func TestOutOfRangeRegionFailsTheSchedule(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(24, 12, 9)
	forEachBody(t, func(t *testing.T) {
		prog := mpdata.NewProgram()
		for fi := range prog.Fused {
			inner := prog.Fused[fi].Fast
			prog.Fused[fi].Fast = func(env *stencil.Env, r grid.Region) {
				if r.I1 == domain.NI {
					r.I1++
				}
				inner(env, r)
			}
		}
		state := mpdata.NewState(domain)
		state.SetStandardProblem()
		r, err := exec.NewRunner(exec.Config{
			Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 2,
		}, prog, state.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		err = r.Run()
		if err == nil {
			t.Fatal("Run returned nil for a region outside the domain")
		}
		if msg := err.Error(); !strings.Contains(msg, "schedule failed") || !strings.Contains(msg, "out of range") {
			t.Fatalf("Run error = %q, want the schedule failure carrying the Go bounds panic", msg)
		}
	})
}

// TestScheduleDoesNotDependOnTheBody: row capability is data on the
// registrations, not the CPU probe, so the schedule an engine compiles — what
// `mpdata-sim -schedule` prints and the digests pin — is the same whichever
// body the kernels were built with.
func TestScheduleDoesNotDependOnTheBody(t *testing.T) {
	if !mpdata.VectorAvailable() {
		t.Skip("no AVX2 bodies in this build or on this CPU")
	}
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(24, 12, 9)
	var described [2]string
	for i, vector := range []bool{false, true} {
		mpdata.WithBody(vector, func() {
			state := mpdata.NewState(domain)
			r, err := exec.NewRunner(exec.Config{
				Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 2,
			}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			described[i] = r.DescribeSchedule()
		})
	}
	if described[0] != described[1] {
		t.Fatalf("the compiled schedule depends on the body:\nscalar: %s\nvector: %s", described[0], described[1])
	}
}
