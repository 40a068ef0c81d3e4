package exec

import (
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestCoreIslandsMatchReference: core-level sub-islands (paper §6) must also
// reproduce the sequential reference bit-for-bit — each worker's private
// trapezoid chain is a complete, sound island.
func TestCoreIslandsMatchReference(t *testing.T) {
	domain := grid.Sz(24, 18, 8)
	const steps = 3
	_, want := referenceMPDATA(domain, steps)

	for _, p := range []int{1, 3} {
		m, err := topology.UV2000(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
			Steps: steps, BlockI: 5, CoreIslands: true,
		}
		got := runStrategy(t, cfg, domain)
		if d := grid.MaxAbsDiff(want, got); d != 0 {
			t.Errorf("P=%d core islands: max diff %g", p, d)
		}
	}
}

func TestCoreIslandsRequiresIslandsStrategy(t *testing.T) {
	m := topology.SingleSocket()
	state := mpdata.NewState(grid.Sz(16, 16, 4))
	_, err := NewRunner(Config{
		Machine: m, Strategy: Plus31D, Steps: 1, CoreIslands: true,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err == nil || !strings.Contains(err.Error(), "CoreIslands") {
		t.Fatalf("err = %v, want CoreIslands restriction", err)
	}
}

// TestCoreIslandsRedundancyExceedsTeamIslands: splitting every island into
// per-core sub-islands adds j-trapezoids, so the redundancy strictly grows —
// the cost side of the §6 trade-off.
func TestCoreIslandsRedundancy(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(256, 128, 16)
	m, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Model(Config{Machine: m, Strategy: IslandsOfCores, Steps: 1}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	core, err := Model(Config{Machine: m, Strategy: IslandsOfCores, Steps: 1, CoreIslands: true}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if core.ExtraElementsPct <= base.ExtraElementsPct {
		t.Fatalf("core islands redundancy %.2f%% must exceed team islands %.2f%%",
			core.ExtraElementsPct, base.ExtraElementsPct)
	}
	// The j split into 8 sub-islands per island is much finer than the
	// 4-island i split, so the redundancy is substantially larger —
	// but must stay bounded (trapezoids, not full replication).
	if core.ExtraElementsPct > 60 {
		t.Fatalf("core islands redundancy %.2f%% implausibly large", core.ExtraElementsPct)
	}
}

// TestCoreIslandsModelTradeoff: sub-islands remove the per-stage team
// synchronization at the cost of redundant flops; on the paper-size grid the
// balance must land within a sane band of the team-islands time (the paper
// expects possible gains, not order-of-magnitude shifts).
func TestCoreIslandsModelTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale model run")
	}
	prog := &mpdata.NewProgram().Program
	for _, p := range []int{1, 14} {
		m, err := topology.UV2000(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Model(Config{Machine: m, Strategy: IslandsOfCores,
			Placement: grid.FirstTouchParallel, Steps: paperSteps}, prog, paperDomain)
		if err != nil {
			t.Fatal(err)
		}
		core, err := Model(Config{Machine: m, Strategy: IslandsOfCores,
			Placement: grid.FirstTouchParallel, Steps: paperSteps, CoreIslands: true}, prog, paperDomain)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := core.TotalTime / base.TotalTime; ratio < 0.5 || ratio > 1.6 {
			t.Errorf("P=%d: core-islands/team-islands time ratio %.2f out of band", p, ratio)
		}
	}
}

func TestWorkerRegionProperties(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(64, 48, 8)
	p, err := newPlan(Config{Machine: m, Strategy: IslandsOfCores, Steps: 1, BlockI: 8}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	// Worker regions are contained in the island's spans, and the final
	// stage's worker regions tile the island part exactly.
	out := len(prog.Stages) - 1
	for i := range p.parts {
		subs := splitJ(p.parts[i], 8)
		total := 0
		for b := range p.blocks[i] {
			for _, sub := range subs {
				r := p.workerRegionAt(0, i, out, b, sub)
				total += r.Cells()
				if !p.spans[i][out][b].ContainsRegion(r) {
					t.Fatalf("worker region %v escapes span %v", r, p.spans[i][out][b])
				}
			}
		}
		if total != p.parts[i].Cells() {
			t.Fatalf("island %d: final-stage worker regions cover %d cells, want %d",
				i, total, p.parts[i].Cells())
		}
	}
}

// splitJ mirrors the compute backend's worker split for the test.
func splitJ(r grid.Region, n int) []grid.Region {
	out := make([]grid.Region, 0, n)
	width := r.J1 - r.J0
	at := r.J0
	for c := 0; c < n; c++ {
		w := width / n
		if c < width%n {
			w++
		}
		sub := r
		sub.J0, sub.J1 = at, at+w
		at += w
		if w == 0 {
			sub = grid.Region{}
		}
		out = append(out, sub)
	}
	return out
}
