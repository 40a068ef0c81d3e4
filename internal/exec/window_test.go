package exec

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// runWindowed runs cfg on the standard test problem and returns the final
// psi with the runner's stats and parts. Before Run every stage array of
// every environment is poisoned with NaN, so a schedule that read a cell it
// had not computed first — the failure a window narrowed too far would cause —
// surfaces in the output instead of reading a plausible zero.
func runWindowed(t *testing.T, cfg Config, domain grid.Size) (*grid.Field, ScheduleStats, *PlanInfo) {
	t.Helper()
	state := freshState(domain)
	prog := mpdata.NewProgram()
	runner, err := NewRunner(cfg, prog, state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	for _, env := range runner.haloEnvs {
		for s := range prog.Stages {
			env.Field(prog.Stages[s].Name).Fill(math.NaN())
		}
	}
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	runner.SyncFeedback()
	return state.Psi, runner.Schedule().Stats(), runner.Plan()
}

// TestKeepWindowMatchesWholeDomain is the owned-window property: a runner
// given Config.Keep is bit-identical to the whole-domain runner of the same
// configuration on every cell of Keep — for every strategy, both boundaries,
// k in {1,2,3}, on odd shapes, for windows touching neither, one or both
// domain edges — and it honours the window exactly when one Run is a single
// block (Steps <= the k the window's own partition can carry), falling back
// to the whole-domain partition with a recorded reason otherwise.
func TestKeepWindowMatchesWholeDomain(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	islandsDomain := grid.Sz(53, 25, 7)
	strategies := []struct {
		name   string
		domain grid.Size
		cfg    Config
		// canBlock reports whether the window's own partition carries a
		// k-step block under Clamp (MPDATA's psi halo is 3 cells a step).
		canBlock func(keep grid.Region, k int) bool
	}{
		{"original", islandsDomain, Config{Machine: m2, Strategy: Original}, nil},
		{"plus31d", islandsDomain, Config{Machine: m2, Strategy: Plus31D, BlockI: 6}, nil},
		{"islands-a", islandsDomain, Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 6},
			func(keep grid.Region, k int) bool { return (keep.I1-keep.I0)/2 >= 3*k }},
		// 75 j-cells over 8 workers: sub-parts of 9 carry k = 2 and 3; a
		// window narrower in j does not.
		{"core-islands", grid.Sz(41, 75, 5), Config{Machine: m2, Strategy: IslandsOfCores, CoreIslands: true, BlockI: 6},
			func(keep grid.Region, k int) bool {
				return (keep.I1-keep.I0)/2 >= 3*k && (keep.J1-keep.J0)/8 >= 3*k
			}},
	}
	boundaries := []struct {
		name string
		bc   stencil.Boundary
	}{{"clamp", stencil.Clamp}, {"periodic", stencil.Periodic}}

	for _, sc := range strategies {
		d := sc.domain
		windows := []struct {
			name string
			keep grid.Region
		}{
			{"interior", grid.Box(11, 38, 0, d.NJ, 0, d.NK)},
			{"low-edge", grid.Box(0, 29, 0, d.NJ, 0, d.NK)},
			{"high-edge", grid.Box(d.NI-27, d.NI, 0, d.NJ, 0, d.NK)},
			{"both-edges-part-j", grid.Box(0, d.NI, 4, d.NJ-3, 0, d.NK)},
		}
		for _, bc := range boundaries {
			for _, k := range []int{1, 2, 3} {
				if k > 1 && sc.canBlock == nil {
					continue // rejected by Config.Validate
				}
				// steps == k is the single-block run the window is for;
				// steps == k+1 needs a second block and must fall back.
				for _, steps := range []int{k, k + 1} {
					cfg := sc.cfg
					cfg.Boundary, cfg.KSteps, cfg.Steps = bc.bc, k, steps
					var want *grid.Field
					for _, w := range windows {
						if steps > k && w.name != "interior" {
							continue
						}
						name := fmt.Sprintf("%s/%s/k%d/steps%d/%s", sc.name, bc.name, k, steps, w.name)
						t.Run(name, func(t *testing.T) {
							if want == nil {
								want, _, _ = runWindowed(t, cfg, d)
							}
							kcfg := cfg
							kcfg.Keep = w.keep
							got, st, plan := runWindowed(t, kcfg, d)
							for i := w.keep.I0; i < w.keep.I1; i++ {
								for j := w.keep.J0; j < w.keep.J1; j++ {
									for kk := w.keep.K0; kk < w.keep.K1; kk++ {
										if g, x := got.At(i, j, kk), want.At(i, j, kk); math.Float64bits(g) != math.Float64bits(x) {
											t.Fatalf("cell (%d,%d,%d) of the window: %v, whole-domain runner %v", i, j, kk, g, x)
										}
									}
								}
							}

							// The rule: one Run must be one block of the
							// window's own partition.
							honoured := steps == 1 ||
								(steps <= k && bc.bc == stencil.Clamp && sc.canBlock(w.keep, k))
							covered := grid.WholeRegion(d)
							if honoured {
								covered = w.keep
							}
							cells := 0
							for _, part := range plan.Parts {
								if !covered.ContainsRegion(part) {
									t.Fatalf("part %v lies outside %v (window honoured: %v)", part, covered, honoured)
								}
								cells += part.Cells()
							}
							if cells != covered.Cells() {
								t.Fatalf("parts cover %d cells, want the %d of %v", cells, covered.Cells(), covered)
							}
							if honoured != (st.WindowFallbackReason == "") {
								t.Fatalf("window honoured = %v, but fallback reason = %q", honoured, st.WindowFallbackReason)
							}
							if !honoured && !strings.Contains(st.String(), "window fallback: "+st.WindowFallbackReason) {
								t.Fatalf("stats rendering hides the window fallback: %s", st)
							}
						})
					}
				}
			}
		}
	}
}

// TestKeepWindowRejectsBadRegions: a window must be a non-empty part of the
// domain; the whole domain is the same as no window at all.
func TestKeepWindowRejectsBadRegions(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	prog := mpdata.NewProgram()
	domain := grid.Sz(24, 18, 8)
	cfg := Config{Machine: m2, Strategy: IslandsOfCores, Steps: 3}
	for _, keep := range []grid.Region{
		grid.Box(5, 5, 0, 18, 0, 8),  // empty
		grid.Box(-1, 9, 0, 18, 0, 8), // pokes out below
		grid.Box(3, 25, 0, 18, 0, 8), // pokes out above
	} {
		cfg.Keep = keep
		if _, err := newPlan(cfg, &prog.Program, domain); err == nil {
			t.Errorf("window %v accepted", keep)
		}
	}
	cfg.Keep = grid.WholeRegion(domain)
	p, err := newPlan(cfg, &prog.Program, domain)
	if err != nil {
		t.Fatal(err)
	}
	if p.windowReason != "" {
		t.Fatalf("whole-domain window recorded a fallback: %s", p.windowReason)
	}
}
