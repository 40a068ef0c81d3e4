package exec

import (
	"fmt"
	"math"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestPeriodicSeamSweep pins the forward wrap image's phase (wrap.go): it
// must be swept in the block that holds its stage's top plane, because the
// wavefront lead computes that plane and its readers one block before the
// part's last block whenever the last block is a single plane. Over every NI
// in 12..60, two and three islands and three block widths, islands and core
// islands must reproduce the sequential periodic solver bit for bit. The
// shapes the sweep covers include every one whose top-i part ends in a
// one-plane block (for p=2 and BlockI 4: NI 18, 19, 26, 27, ... up to 59).
// Some of their errors are far below any tolerance, so the comparison is
// exact. One step is enough: the misordered image is read within the step.
func TestPeriodicSeamSweep(t *testing.T) {
	const nj, nk, steps = 24, 6, 1
	if testing.Short() {
		t.Skip("sweeps 49 grids × 12 configurations")
	}
	machines := map[int]*topology.Machine{}
	for _, p := range []int{2, 3} {
		m, err := topology.UV2000(p)
		if err != nil {
			t.Fatal(err)
		}
		machines[p] = m
	}
	prog := mpdata.NewProgram()
	for ni := 12; ni <= 60; ni++ {
		domain := grid.Sz(ni, nj, nk)
		ref := seamProblem(domain)
		solver, err := mpdata.NewSolver(ref)
		if err != nil {
			t.Fatal(err)
		}
		solver.SetBoundary(stencil.Periodic)
		solver.Step(steps)
		for _, p := range []int{2, 3} {
			for _, bi := range []int{4, 6, 12} {
				for _, core := range []bool{false, true} {
					cfg := Config{Machine: machines[p], Strategy: IslandsOfCores, Boundary: stencil.Periodic,
						Steps: steps, BlockI: bi, CoreIslands: core}
					name := fmt.Sprintf("%dx%dx%d/p%d/b%d/core=%v", ni, nj, nk, p, bi, core)
					state := seamProblem(domain)
					r, err := NewRunner(cfg, prog, state.InputMap(), mpdata.InPsi)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					err = r.Run()
					r.SyncFeedback()
					r.Close()
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if n, d := cellsDiffering(ref.Psi, state.Psi); n > 0 {
						t.Errorf("%s: %d cells differ from the periodic solver (max %g)", name, n, d)
					}
				}
			}
		}
	}
}

// seamProblem puts a blob on the i seam in a uniform flow across it, so every
// grid of the sweep carries the signal through the wrap images.
func seamProblem(domain grid.Size) *mpdata.State {
	s := mpdata.NewState(domain)
	s.SetGaussian(0.5, float64(domain.NJ)/2, float64(domain.NK)/2, 3, 1, 0.1)
	s.SetUniformVelocity(0.3, -0.2, 0.1)
	return s
}

// cellsDiffering counts the cells whose bits differ and the largest absolute
// difference among them.
func cellsDiffering(want, got *grid.Field) (int, float64) {
	n, d := 0, 0.0
	for i, w := range want.Data {
		if math.Float64bits(w) != math.Float64bits(got.Data[i]) {
			n++
			d = max(d, math.Abs(w-got.Data[i]))
		}
	}
	return n, d
}
