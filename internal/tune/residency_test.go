package tune

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/stream"
	"islands/internal/topology"
)

func residencySetup(t *testing.T) (*topology.Machine, *stencil.Program, Class, Knobs) {
	t.Helper()
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mpdata.NewProgramWithOptions(mpdata.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	class := Class{Domain: grid.Sz(192, 16, 16), Processors: 2, Boundary: stencil.Clamp, IORD: 2}
	knobs := Knobs{Strategy: exec.IslandsOfCores, KSteps: 1}.Canon()
	return m, &prog.Program, class, knobs
}

func feedbackHalo(t *testing.T, prog *stencil.Program) stencil.Extent {
	t.Helper()
	an, err := stencil.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	return an.InputExtents[prog.Feedback]
}

func TestPickResidencyResident(t *testing.T) {
	m, prog, class, knobs := residencySetup(t)
	r, err := PickResidency(m, prog, class, knobs, 20, 1<<40, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Resident {
		t.Fatalf("a 1 TiB budget should keep %v resident, got %+v", class.Domain, r)
	}
}

func TestPickResidencyUnderBudget(t *testing.T) {
	m, prog, class, knobs := residencySetup(t)
	cfg := ApplyKnobs(class.BaseConfig(m), knobs)
	whole := exec.StreamResidentBytes(cfg, prog, feedbackHalo(t, prog), class.Domain, class.Domain.NI, 1)
	budget := int64(whole / 6)
	r, err := PickResidency(m, prog, class, knobs, 20, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resident {
		t.Fatalf("budget %d (1/6 of resident) should stream", budget)
	}
	if r.Cost.Tiles < 4 {
		t.Fatalf("expected >= 4 tiles at 1/6 budget, got %d (width %d)", r.Cost.Tiles, r.TilePlanes)
	}
	if r.Cost.ResidentBytes > float64(budget) {
		t.Fatalf("chosen plan over budget: %v > %d", r.Cost.ResidentBytes, budget)
	}
	if r.Label == "" || r.K < 1 {
		t.Fatalf("malformed decision: %+v", r)
	}
}

func TestPickResidencySlowDiskPrefersLargerK(t *testing.T) {
	m, prog, class, knobs := residencySetup(t)
	cfg := ApplyKnobs(class.BaseConfig(m), knobs)
	whole := exec.StreamResidentBytes(cfg, prog, feedbackHalo(t, prog), class.Domain, class.Domain.NI, 1)
	budget := int64(whole / 4)
	slow, err := PickResidency(m, prog, class, knobs, 32, budget, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := PickResidency(m, prog, class, knobs, 32, budget, 1e13)
	if err != nil {
		t.Fatal(err)
	}
	if slow.K < fast.K {
		t.Fatalf("slow disk picked k=%d below fast disk's k=%d", slow.K, fast.K)
	}
	if slow.K <= 1 {
		t.Fatalf("a disk-bound stream should amortize sweeps with k > 1, got k=%d (%s)", slow.K, slow.Label)
	}
}

func TestPickResidencyImpossibleBudget(t *testing.T) {
	m, prog, class, knobs := residencySetup(t)
	if _, err := PickResidency(m, prog, class, knobs, 20, 1024, 0); err == nil {
		t.Fatal("kilobyte budget accepted")
	}
	if _, err := PickResidency(m, prog, class, knobs, 20, 0, 0); err == nil {
		t.Fatal("zero budget accepted")
	}
}

// TestStreamCostGeometryMatchesPlanner pins exec's mirrored tile arithmetic
// to the streaming executor's actual planner.
func TestStreamCostGeometryMatchesPlanner(t *testing.T) {
	m, prog, _, _ := residencySetup(t)
	an, err := stencil.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	fext := an.InputExtents[prog.Feedback]
	domain := grid.Sz(40, 8, 8)
	for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
		for _, c := range []exec.StreamChoice{{TilePlanes: 5, K: 1}, {TilePlanes: 8, K: 2}, {TilePlanes: 13, K: 4}} {
			cfg := exec.Config{Machine: m, Strategy: exec.Original, Boundary: bc, Steps: 1}
			cost, err := exec.StreamCost(cfg, prog, an, domain, 12, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := stream.NewPlan(domain, 12, c.K, c.TilePlanes, fext.Scale(c.K), bc)
			if err != nil {
				t.Fatal(err)
			}
			if cost.Tiles != len(plan.Tiles) || cost.Sweeps != plan.Sweeps ||
				cost.MaxResidentPlanes != plan.MaxResidentPlanes() ||
				cost.ExtLo != plan.ExtLo || cost.ExtHi != plan.ExtHi {
				t.Fatalf("bc %v choice %+v: cost geometry %+v does not match plan %+v (maxResident %d)",
					bc, c, cost, plan, plan.MaxResidentPlanes())
			}
		}
	}
}
