package exec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/topology"
)

// TestPlanSoundness is the geometry property test: for random machines,
// strategies, variants, block widths and domains, the execution plan must
// satisfy the invariants all executors rely on:
//
//  1. island parts tile the domain exactly;
//  2. per island and stage, the wavefront spans tile the island's stage
//     region exactly (no inter-block redundancy, no gaps);
//  3. the final stage's spans collectively tile the domain exactly (each
//     output cell computed exactly once across the machine);
//  4. every span stays inside the domain.
func TestPlanSoundness(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(6)
		m, err := topology.UV2000(p)
		if err != nil {
			return false
		}
		domain := grid.Sz(8*p+rng.Intn(60), 8+rng.Intn(40), 4+rng.Intn(8))
		cfg := Config{
			Machine:  m,
			Strategy: []Strategy{Original, Plus31D, IslandsOfCores}[rng.Intn(3)],
			Steps:    1,
			BlockI:   1 + rng.Intn(12),
		}
		if cfg.Strategy == IslandsOfCores {
			switch rng.Intn(3) {
			case 1:
				if domain.NJ >= p {
					cfg.Variant = 1 // variant B
				}
			case 2:
				if p%2 == 0 && domain.NI >= p/2 && domain.NJ >= 2 {
					cfg.IslandGrid = [2]int{p / 2, 2}
				}
			}
		}
		pl, err := newPlan(cfg, prog, domain)
		if err != nil {
			t.Logf("seed %d: plan error: %v", seed, err)
			return false
		}
		// (1) parts tile the domain.
		cells := 0
		for _, part := range pl.parts {
			cells += part.Cells()
		}
		if cells != domain.Cells() {
			return false
		}
		whole := grid.WholeRegion(domain)
		out := len(prog.Stages) - 1
		outCells := 0
		for i, part := range pl.parts {
			for s := range prog.Stages {
				stageRegion := pl.analysis.StageRegion(s, part, domain)
				spanCells := 0
				for _, span := range pl.spans[i][s] {
					if !whole.ContainsRegion(span) {
						return false // (4)
					}
					spanCells += span.Cells()
				}
				if spanCells != stageRegion.Cells() {
					return false // (2)
				}
			}
			outCells += int(pl.islandCells()[i][out])
		}
		return outCells == domain.Cells() // (3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
