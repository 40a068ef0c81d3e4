package exec

import (
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestWrapBandUnitsDisjoint pins the schedule compiler's same-phase write
// invariant under periodic boundaries, on the compiler's own enumeration:
// for every (sweeper, inner step, block, fused group) the compile loop
// visits, the regions phaseUnits hands out for any one stage — the fused
// sweep, the members' leftover strips and the wrap bands (wrap.go) — must be
// pairwise disjoint. Units of a phase are chunked across the sweeper's
// workers independently, so any overlap is a write-write data race between
// workers (the regression this test pins produced bogus Subtract pieces when
// a block span partially overlapped a band box — Subtract requires
// containment).
func TestWrapBandUnitsDisjoint(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	kp := mpdata.NewProgram()
	cases := []struct {
		name   string
		domain grid.Size
		cfg    Config
		// kstepsWant is the temporal-blocking factor the plan must keep:
		// under a periodic boundary k > 1 survives only where every island
		// spans the wrapped dimensions.
		kstepsWant int
	}{
		{"islands-a", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5}, 1},
		{"islands-b", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, Variant: decomp.VariantB}, 1},
		{"islands-2d", grid.Sz(20, 18, 8), Config{Machine: m4, Strategy: IslandsOfCores, BlockI: 5, IslandGrid: [2]int{2, 2}}, 1},
		{"plus31d", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: Plus31D, BlockI: 5}, 1},
		{"original", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: Original}, 1},
		{"islands-a-k2", grid.Sz(48, 24, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 8, KSteps: 2}, 1},
		{"islands-1node-k2", grid.Sz(24, 18, 8), Config{Machine: topology.SingleSocket(), Strategy: IslandsOfCores, BlockI: 5, KSteps: 2}, 2},
		{"core-islands", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, CoreIslands: true}, 1},
		{"core-islands-k2", grid.Sz(24, 64, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, CoreIslands: true, KSteps: 2}, 1},
		// Owned-window plans (Config.Keep): the islands tile a window at a
		// domain face, so their wrap images land outside every part.
		{"islands-a-keep-top", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, Keep: grid.Box(10, 24, 0, 18, 0, 8)}, 1},
		{"islands-a-keep-bottom", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, Keep: grid.Box(0, 13, 0, 18, 0, 8)}, 1},
		{"islands-b-keep-part-j", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, Variant: decomp.VariantB, Keep: grid.Box(0, 24, 3, 15, 0, 8)}, 1},
		{"plus31d-keep-top", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: Plus31D, BlockI: 5, Keep: grid.Box(10, 24, 0, 18, 0, 8)}, 1},
		{"core-islands-keep-top", grid.Sz(24, 18, 8), Config{Machine: m2, Strategy: IslandsOfCores, BlockI: 5, CoreIslands: true, Keep: grid.Box(10, 24, 0, 18, 0, 8)}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Boundary = stencil.Periodic
			cfg.Steps = 1
			p, err := newPlan(cfg, &kp.Program, tc.domain)
			if err != nil {
				t.Fatal(err)
			}
			if p.windowReason != "" {
				t.Fatalf("window not honoured: %s", p.windowReason)
			}
			if p.ksteps != tc.kstepsWant {
				t.Fatalf("plan keeps ksteps=%d (%s), want %d", p.ksteps, p.kstepReason, tc.kstepsWant)
			}
			c, err := newScheduleCompiler(p, kp, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			banded := 0
			for e := range p.sweepers {
				sw := &p.sweepers[e]
				for d := 0; d < p.ksteps; d++ {
					bands := p.stageWrapBands(sw, d)
					if bands != nil {
						banded++
					}
					for b := range p.blocks[sw.island] {
						for gi := range c.groups {
							units := c.phaseUnits(sw, bands, d, b, gi)
							for _, s := range p.fuse.Groups[gi].Stages {
								var regs []grid.Region
								for _, u := range units {
									if writesStage(c, u, s) {
										regs = append(regs, u.reg)
									}
								}
								for x := range regs {
									for y := x + 1; y < len(regs); y++ {
										if ov := regs[x].Intersect(regs[y]); !ov.Empty() {
											t.Errorf("sweeper %d d=%d block %d stage %q: units %v and %v overlap at %v",
												e, d, b, p.prog.Stages[s].Name, regs[x], regs[y], ov)
										}
									}
								}
							}
						}
					}
				}
			}
			if wantBands := cfg.Strategy != Original; (banded > 0) != wantBands {
				t.Fatalf("%d banded (sweeper, inner step) pairs, want bands: %v — the case no longer exercises what it names", banded, wantBands)
			}
		})
	}
}

// writesStage reports whether phase unit u writes stage s's output: a fused
// unit sweeps every fast member of its group, any other unit its one stage.
func writesStage(c *scheduleCompiler, u phaseUnit, s int) bool {
	if !u.fused {
		return u.idx == s
	}
	for _, m := range c.groups[u.idx].FastMembers {
		if m == s {
			return true
		}
	}
	return false
}
