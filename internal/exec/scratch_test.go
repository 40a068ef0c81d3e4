package exec

import (
	"math"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestEngineFieldsCountWhatRunnersHold pins the one field count to the
// runners it prices: for every catalog solver and strategy, on the UV 2000's
// shape and a host-shaped machine, EngineFields' Scratch is the runner's
// scratch list and its State the step inputs plus each environment's output
// stage and private feedback buffer. Every arm here runs the swap publish its
// strategy prefers, so State is exact.
func TestEngineFieldsCountWhatRunnersHold(t *testing.T) {
	uv, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	machines := map[string]*topology.Machine{"uv": uv, "host3": topology.Host{Nodes: 1, CPUs: 3}.Run(uv)}
	domain := grid.Sz(32, 32, 8)
	for _, name := range solver.Names() {
		entry, err := solver.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		d := domain
		for nk := 1; nk <= 16 && entry.CheckDomain != nil && entry.CheckDomain(d) != nil; nk++ {
			d.NK = nk
		}
		kp, err := entry.NewProgram(solver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for mname, m := range machines {
			for _, cfg := range []Config{
				{Strategy: Original}, {Strategy: Plus31D},
				{Strategy: IslandsOfCores}, {Strategy: IslandsOfCores, CoreIslands: true},
			} {
				cfg.Machine, cfg.BlockI, cfg.Steps, cfg.Boundary = m, 4, 1, stencil.Clamp
				st, err := entry.NewState(d)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewUnboundRunner(cfg, kp, st.Inputs, st.Feedback)
				if err != nil {
					t.Fatal(err)
				}
				got := FieldCount{State: len(r.inputs) + len(r.haloEnvs) + len(r.swapPairs), Scratch: len(r.scratch)}
				r.Close()
				if want := EngineFields(cfg, &kp.Program); got != want {
					t.Errorf("%s %s %v core=%v: runner holds %+v, EngineFields counts %+v", name, mname, cfg.Strategy, cfg.CoreIslands, got, want)
				}
			}
		}
	}
}

// TestUnboundRunnerOnAPoisonedArena: an unbound runner refuses to step, and
// once bound to an arena holding NaN everywhere — or the scratch another
// strategy's runner left — it computes the bits of a runner that owns its
// scratch, step after step and across rebinds.
func TestUnboundRunnerOnAPoisonedArena(t *testing.T) {
	m, err := topology.UV2000(3)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(23, 11, 7)
	for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
		for _, cfg := range []Config{
			{Strategy: Original}, {Strategy: Plus31D, BlockI: 4},
			{Strategy: IslandsOfCores, BlockI: 4}, {Strategy: IslandsOfCores, CoreIslands: true, BlockI: 4},
		} {
			cfg.Machine, cfg.Boundary, cfg.Steps = m, bc, 1
			want := freshState(domain)
			owner, err := NewRunner(cfg, mpdata.NewProgram(), want.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			got := freshState(domain)
			r, err := NewUnboundRunner(cfg, mpdata.NewProgram(), got.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != errUnbound {
				t.Fatalf("unbound runner stepped: %v", err)
			}
			other := freshState(domain)
			neighbour, err := NewUnboundRunner(Config{Machine: m, Strategy: IslandsOfCores, CoreIslands: !cfg.CoreIslands, Boundary: bc, Steps: 1},
				mpdata.NewProgram(), other.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			var arena grid.Arena
			for step := 0; step < 3; step++ {
				if err := owner.Run(); err != nil {
					t.Fatal(err)
				}
				if step == 1 {
					neighbour.BindScratch(&arena)
					if err := neighbour.Run(); err != nil {
						t.Fatal(err)
					}
					neighbour.UnbindScratch()
				}
				r.BindScratch(&arena)
				if step != 1 {
					arena.Fill(math.NaN())
				}
				if err := r.Run(); err != nil {
					t.Fatal(err)
				}
				r.UnbindScratch()
			}
			owner.SyncFeedback()
			r.SyncFeedback()
			for n := range want.Psi.Data {
				if math.Float64bits(got.Psi.Data[n]) != math.Float64bits(want.Psi.Data[n]) {
					t.Fatalf("%v %v core=%v: psi[%d] = %v on a rebound arena, %v owned", bc, cfg.Strategy, cfg.CoreIslands, n, got.Psi.Data[n], want.Psi.Data[n])
				}
			}
			owner.Close()
			r.Close()
			neighbour.Close()
		}
	}
}
