package stream

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// solverRun advances the standard problem with the sequential reference
// solver under the given boundary condition.
func solverRun(t *testing.T, domain grid.Size, bc stencil.Boundary, steps int) *grid.Field {
	t.Helper()
	state := mpdata.NewState(domain)
	state.SetStandardProblem()
	solver, err := mpdata.NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	solver.SetBoundary(bc)
	solver.Step(steps)
	return state.Psi
}

// TestStreamIslandsPeriodicSolverExact pins that BOTH execution paths are
// solver-exact for IslandsOfCores under a Periodic boundary:
//
//  1. The resident executor, whose block-major walk used to leave stale
//     values near the wrap seam (edge islands never computed the opposite
//     face's wrap images). The periodic wrap bands in internal/exec/wrap.go
//     close that gap, so the resident run is now required to be
//     bit-identical — residentRun's former Original-strategy fallback for
//     this combination is gone.
//  2. The STREAMED islands run, where every tile's halo is loaded from
//     committed correct planes and the redundant-trapezoid argument confines
//     cut-edge garbage to the discarded shell, regardless of the boundary
//     condition.
func TestStreamIslandsPeriodicSolverExact(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(9, 5, 4)
	for _, steps := range []int{1, 5} {
		ref := solverRun(t, domain, stencil.Periodic, steps)

		cfg := exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Periodic, Steps: steps, KSteps: 1}
		prog, err := mpdata.NewProgramWithOptions(mpdata.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		state := mpdata.NewState(domain)
		state.SetStandardProblem()
		r, err := exec.NewRunner(cfg, prog, state.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		r.SyncFeedback()
		r.Close()
		if d := grid.MaxAbsDiff(state.Psi, ref); d != 0 {
			t.Errorf("steps=%d: resident islands+periodic differs from solver by %v, want bit-identical", steps, d)
		}

		s, err := New(Options{Dir: t.TempDir(), Exec: cfg, Domain: domain, TilePlanes: 2})
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
		s.Close()
		if d := grid.MaxAbsDiff(got, ref); d != 0 {
			t.Fatalf("steps=%d: streamed islands+periodic differs from solver by %v, want bit-identical", steps, d)
		}
	}
}
