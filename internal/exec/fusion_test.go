package exec

import (
	"fmt"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestFusionBitIdentical compares fused and unfused compiled schedules
// cell-for-cell: for every strategy, boundary condition and awkward domain
// shape, stage fusion must not change a single bit of the result. The
// unfused path is itself verified against the sequential reference
// (compute_test.go, oddshape_test.go), so equality here extends that chain
// to the fused schedules.
func TestFusionBitIdentical(t *testing.T) {
	m, err := topology.UV2000(3)
	if err != nil {
		t.Fatal(err)
	}
	domains := []grid.Size{
		grid.Sz(24, 18, 8),
		grid.Sz(13, 7, 5), // NI < core count: empty worker chunks
		grid.Sz(5, 9, 4),  // k thinner than the widest stencil extent
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"original", Config{Strategy: Original}},
		{"plus31d", Config{Strategy: Plus31D, BlockI: 3}},
		{"islands", Config{Strategy: IslandsOfCores, BlockI: 3}},
		{"core-islands", Config{Strategy: IslandsOfCores, CoreIslands: true, BlockI: 3}},
	}
	const steps = 2
	for _, domain := range domains {
		for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%v/bc%d/%s", domain, bc, tc.name), func(t *testing.T) {
					cfg := tc.cfg
					cfg.Machine = m
					cfg.Boundary = bc
					cfg.Steps = steps
					fused := runStrategy(t, cfg, domain)
					cfg.DisableFusion = true
					unfused := runStrategy(t, cfg, domain)
					if diff := grid.MaxAbsDiff(fused, unfused); diff != 0 {
						t.Fatalf("fused and unfused %s differ: max |diff| = %g", tc.name, diff)
					}
				})
			}
		}
	}
}

// TestFusionScheduleStats checks the headline of the fusion compiler: the
// 17-stage MPDATA program compiles to at most 8 phase groups per block
// (exactly 7), and the fused schedule carries proportionally fewer barrier
// waits than the unfused one.
func TestFusionScheduleStats(t *testing.T) {
	domain := grid.Sz(32, 24, 8)
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(disable bool) ScheduleStats {
		state := freshState(domain)
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
	fused := build(false)
	unfused := build(true)
	if fused.Stages != 17 || fused.PhaseGroups != 7 {
		t.Fatalf("fused stats: %d stages in %d phase groups, want 17 in 7", fused.Stages, fused.PhaseGroups)
	}
	if fused.PhaseGroups > 8 {
		t.Fatalf("fused phase groups = %d, exceeds the acceptance bound of 8", fused.PhaseGroups)
	}
	if unfused.PhaseGroups != 17 {
		t.Fatalf("unfused stats: %d phase groups, want 17 (one per stage)", unfused.PhaseGroups)
	}
	if fused.BarrierWaits >= unfused.BarrierWaits {
		t.Fatalf("fused schedule has %d barrier waits, unfused %d — fusion must cut barriers",
			fused.BarrierWaits, unfused.BarrierWaits)
	}
	// Each team runs 4 blocks x 7 (or 17) phases, minus one leading phase,
	// plus the global pre-publish barrier: the wait ratio tracks 7/17.
	ratio := float64(fused.BarrierWaits) / float64(unfused.BarrierWaits)
	if ratio > 0.5 {
		t.Fatalf("barrier-wait ratio fused/unfused = %.2f, want < 0.5 (17 -> 7 phases)", ratio)
	}
}
