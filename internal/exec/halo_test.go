package exec

import (
	"fmt"
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestHaloGeometryCoversReads checks the halo-strip geometry cell by cell
// against a brute-force resolution of the boundary condition: for every
// owned part, the derived boxes must cover exactly the in-domain cells the
// step halo resolves to, the strips must tile (boxes minus the own part)
// with each cell copied exactly once, and every strip must lie inside a
// single owner's part — the invariants that make the exchange race-free and
// incapable of under-provisioning a halo read.
func TestHaloGeometryCoversReads(t *testing.T) {
	cases := []struct {
		name   string
		domain grid.Size
		owned  []grid.Region
		ext    stencil.Extent
		bc     stencil.Boundary
	}{
		{"clamp-1d", grid.Sz(10, 9, 4),
			[]grid.Region{grid.Box(0, 4, 0, 9, 0, 4), grid.Box(4, 7, 0, 9, 0, 4), grid.Box(7, 10, 0, 9, 0, 4)},
			stencil.Extent{ILo: 3, IHi: 3, JLo: 3, JHi: 3, KLo: 3, KHi: 3}, stencil.Clamp},
		{"periodic-wrap-overlap", grid.Sz(10, 9, 4),
			[]grid.Region{grid.Box(0, 4, 0, 9, 0, 4), grid.Box(4, 7, 0, 9, 0, 4), grid.Box(7, 10, 0, 9, 0, 4)},
			stencil.Extent{ILo: 3, IHi: 3, JLo: 3, JHi: 3, KLo: 3, KHi: 3}, stencil.Periodic},
		{"periodic-2d", grid.Sz(8, 8, 3),
			[]grid.Region{grid.Box(0, 4, 0, 4, 0, 3), grid.Box(0, 4, 4, 8, 0, 3),
				grid.Box(4, 8, 0, 4, 0, 3), grid.Box(4, 8, 4, 8, 0, 3)},
			stencil.Extent{ILo: 2, IHi: 1, JLo: 1, JHi: 2}, stencil.Periodic},
		{"asymmetric-clamp", grid.Sz(12, 6, 5),
			[]grid.Region{grid.Box(0, 5, 0, 6, 0, 5), grid.Box(5, 12, 0, 6, 0, 5)},
			stencil.Extent{ILo: 1, IHi: 3, KLo: 2}, stencil.Clamp},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, reason := haloGeometry(tc.owned, tc.ext, tc.domain, tc.bc)
			if g == nil {
				t.Fatalf("unexpected fallback: %s", reason)
			}
			resolve := func(c, n int) int {
				if tc.bc == stencil.Periodic {
					return stencil.Wrap(c, n)
				}
				return stencil.ClampIdx(c, n)
			}
			idx := func(i, j, k int) int { return (i*tc.domain.NJ+j)*tc.domain.NK + k }
			for e, own := range tc.owned {
				// Brute-force the BC-resolved read set of the grown part.
				want := make([]bool, tc.domain.Cells())
				need := tc.ext.Apply(own)
				for i := need.I0; i < need.I1; i++ {
					for j := need.J0; j < need.J1; j++ {
						for k := need.K0; k < need.K1; k++ {
							want[idx(resolve(i, tc.domain.NI), resolve(j, tc.domain.NJ), resolve(k, tc.domain.NK))] = true
						}
					}
				}
				boxed := make([]int, tc.domain.Cells())
				mark := func(r grid.Region, counts []int) {
					for i := r.I0; i < r.I1; i++ {
						for j := r.J0; j < r.J1; j++ {
							for k := r.K0; k < r.K1; k++ {
								counts[idx(i, j, k)]++
							}
						}
					}
				}
				for _, b := range g.boxes[e] {
					mark(b, boxed)
				}
				for c, w := range want {
					if (boxed[c] > 0) != w {
						t.Fatalf("env %d: cell %d boxed=%d, want coverage %v", e, c, boxed[c], w)
					}
					if boxed[c] > 1 {
						t.Fatalf("env %d: cell %d covered by %d boxes, want disjoint", e, c, boxed[c])
					}
				}
				// Strips tile boxes−own exactly once, each inside its owner.
				written := make([]int, tc.domain.Cells())
				for _, s := range g.strips[e] {
					if !tc.owned[s.owner].ContainsRegion(s.reg) {
						t.Fatalf("env %d: strip %v leaks outside owner %d part %v", e, s.reg, s.owner, tc.owned[s.owner])
					}
					mark(s.reg, written)
				}
				mark(own, written)
				for c := range want {
					wantWrites := 0
					if boxed[c] > 0 || own.Contains(c/(tc.domain.NJ*tc.domain.NK), c/tc.domain.NK%tc.domain.NJ, c%tc.domain.NK) {
						wantWrites = 1
					}
					if written[c] != wantWrites {
						t.Fatalf("env %d: cell %d written %d times, want %d", e, c, written[c], wantWrites)
					}
				}
			}
		})
	}
}

// TestHaloGeometryFallbacks pins the loud fallback rule: parts narrower
// than the step halo along a dimension they do not fully span, and halo
// extents wider than the domain, must refuse the exchange with a reason.
func TestHaloGeometryFallbacks(t *testing.T) {
	ext3 := stencil.Extent{ILo: 3, IHi: 3, JLo: 3, JHi: 3, KLo: 3, KHi: 3}
	if g, reason := haloGeometry([]grid.Region{grid.Box(0, 2, 0, 9, 0, 4), grid.Box(2, 9, 0, 9, 0, 4)},
		ext3, grid.Sz(9, 9, 4), stencil.Clamp); g != nil || reason == "" {
		t.Fatalf("narrow part accepted (reason %q)", reason)
	}
	if g, reason := haloGeometry([]grid.Region{grid.Box(0, 2, 0, 2, 0, 2), grid.Box(2, 4, 0, 2, 0, 2)},
		stencil.Extent{ILo: 5, IHi: 5}, grid.Sz(4, 2, 2), stencil.Periodic); g != nil || reason == "" {
		t.Fatalf("oversized halo accepted (reason %q)", reason)
	}
	// A part that spans the whole domain along a dimension is never
	// "narrow" there, even when the halo equals the dimension: growth
	// wraps or clamps back into itself.
	if g, reason := haloGeometry([]grid.Region{grid.Box(0, 4, 0, 3, 0, 3), grid.Box(4, 8, 0, 3, 0, 3)},
		ext3, grid.Sz(8, 3, 3), stencil.Periodic); g == nil {
		t.Fatalf("full-span thin dimensions rejected: %s", reason)
	}
	// Empty owned entries (workers with no share) are skipped, not fatal.
	if g, reason := haloGeometry([]grid.Region{grid.Box(0, 4, 0, 4, 0, 2), {}, grid.Box(4, 8, 0, 4, 0, 2)},
		stencil.Extent{ILo: 2, IHi: 2}, grid.Sz(8, 4, 2), stencil.Clamp); g == nil {
		t.Fatalf("empty owned entry rejected: %s", reason)
	}
}

// TestHaloVsCopyBitIdentity is the cross-mode equivalence gate: for both
// island strategies, boundary conditions, 1D and 2D partitions and awkward
// domains, the island-private publish — swap+halo where the geometry carries
// the step halo, the whole-part copy publish on the narrow-part cases where
// it falls back — must reproduce the shared-grid original strategy
// bit-for-bit, so the two publish modes agree with each other through it.
func TestHaloVsCopyBitIdentity(t *testing.T) {
	m, err := topology.UV2000(3)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	cases := []struct {
		name     string
		domain   grid.Size
		cfg      Config
		wantHalo bool
	}{
		{"islands-a", grid.Sz(24, 18, 8), Config{Machine: m, Strategy: IslandsOfCores, BlockI: 5}, true},
		{"islands-b", grid.Sz(24, 18, 8), Config{Machine: m, Strategy: IslandsOfCores, BlockI: 5, Variant: decomp.VariantB}, true},
		{"islands-2d", grid.Sz(20, 18, 8), Config{Machine: m4, Strategy: IslandsOfCores, BlockI: 5, IslandGrid: [2]int{2, 2}}, true},
		{"core-islands", grid.Sz(48, 24, 8), Config{Machine: m2, Strategy: IslandsOfCores, CoreIslands: true, BlockI: 12}, true},
		{"core-islands-narrow", grid.Sz(24, 18, 8), Config{Machine: m, Strategy: IslandsOfCores, CoreIslands: true, BlockI: 5}, false},
		{"islands-narrow", grid.Sz(5, 9, 4), Config{Machine: m, Strategy: IslandsOfCores, BlockI: 3}, false},
	}
	for _, tc := range cases {
		for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
			t.Run(fmt.Sprintf("%s/bc%d", tc.name, bc), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Boundary = bc
				cfg.Steps = steps
				got := runStrategyStats(t, cfg, tc.domain)
				shared := Config{Machine: cfg.Machine, Strategy: Original, Boundary: bc, Steps: steps}
				if d := grid.MaxAbsDiff(got.psi, runStrategy(t, shared, tc.domain)); d != 0 {
					t.Fatalf("%v publish differs from the shared grid: max |diff| = %g", got.stats.Feedback, d)
				}
				want := FeedbackCopy
				if tc.wantHalo {
					want = FeedbackSwapHalo
				}
				if got.stats.Feedback != want {
					t.Fatalf("feedback mode = %v (reason %q), want %v", got.stats.Feedback, got.stats.FallbackReason, want)
				}
			})
		}
	}
}

// runStrategyStats is runStrategy plus the compiled schedule's stats.
type stratResult struct {
	psi   *grid.Field
	stats ScheduleStats
}

func runStrategyStats(t *testing.T, cfg Config, domain grid.Size) stratResult {
	t.Helper()
	state := freshState(domain)
	runner, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	runner.SyncFeedback()
	return stratResult{psi: state.Psi.Clone(), stats: runner.Schedule().Stats()}
}

// TestHaloFusionInvariant: the per-step halo derives from the backward
// analysis of the whole program, so stage fusion must not change the
// exchange geometry — the schedule-level half of the width property test in
// internal/stencil.
func TestHaloFusionInvariant(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(disable bool) ScheduleStats {
		state := freshState(grid.Sz(32, 24, 8))
		r, err := NewRunner(Config{
			Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
			Steps: 1, BlockI: 8, DisableFusion: disable,
		}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.Schedule().Stats()
	}
	fused, unfused := build(false), build(true)
	if fused.Feedback != FeedbackSwapHalo || unfused.Feedback != FeedbackSwapHalo {
		t.Fatalf("modes = %v/%v, want swap+halo for both", fused.Feedback, unfused.Feedback)
	}
	if fused.HaloStrips != unfused.HaloStrips || fused.HaloBytes != unfused.HaloBytes {
		t.Fatalf("fusion changed the halo exchange: %d strips/%d B fused vs %d strips/%d B unfused",
			fused.HaloStrips, fused.HaloBytes, unfused.HaloStrips, unfused.HaloBytes)
	}
}

// TestHaloHookRoundTrip: OnStepEnd hooks observe the materialized feedback
// every step and may mutate it; the runner must re-import the mutation into
// the private buffers so the next step computes from the hook's values —
// same contract as the shared-grid strategies.
func TestHaloHookRoundTrip(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	domain := grid.Sz(24, 16, 8)
	run := func(cfg Config) *grid.Field {
		state := freshState(domain)
		runner, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
		if err != nil {
			t.Fatal(err)
		}
		defer runner.Close()
		runner.OnStepEnd = func(step int) {
			// Read and perturb the published state mid-run.
			state.Psi.Set(1, 1, 1, state.Psi.At(1, 1, 1)+0.5)
			state.Psi.Set(domain.NI-2, 2, 2, float64(step))
		}
		if err := runner.Run(); err != nil {
			t.Fatal(err)
		}
		runner.SyncFeedback()
		return state.Psi.Clone()
	}
	base := Config{Machine: m, Boundary: stencil.Clamp, Steps: steps, BlockI: 6}
	orig := base
	orig.Strategy = Original
	isl := base
	isl.Strategy = IslandsOfCores
	// Core sub-islands split 16 j-cells over 8 workers, narrower than the
	// step halo: the copy publish.
	narrow := isl
	narrow.CoreIslands = true
	if st := runStrategyStats(t, narrow, domain).stats; st.Feedback != FeedbackCopy {
		t.Fatalf("core sub-islands on %v publish by %v, want copy", domain, st.Feedback)
	}
	wantPsi := run(orig)
	if d := grid.MaxAbsDiff(wantPsi, run(isl)); d != 0 {
		t.Fatalf("hooked swap+halo differs from original by %g", d)
	}
	if d := grid.MaxAbsDiff(wantPsi, run(narrow)); d != 0 {
		t.Fatalf("hooked copy publish differs from original by %g", d)
	}
}
