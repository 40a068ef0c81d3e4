package tune

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
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
	knobs := Knobs{Strategy: exec.IslandsOfCores}
	return m, &prog.Program, class, knobs
}

// wholeBytes is the footprint of the class's whole domain held resident.
func wholeBytes(t *testing.T, m *topology.Machine, prog *stencil.Program, class Class, knobs Knobs) float64 {
	t.Helper()
	b, err := ResidentBytes(m, prog, class, knobs, 1, class.Domain.NI, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
	whole := wholeBytes(t, m, prog, class, knobs)
	budget := int64(whole / 6)
	r, err := PickResidency(m, prog, class, knobs, 20, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Resident {
		t.Fatalf("budget %d (1/6 of resident) should stream", budget)
	}
	if tiles := len(r.Cost.Plan.Tiles); tiles < 4 {
		t.Fatalf("expected >= 4 tiles at 1/6 budget, got %d (width %d)", tiles, r.TilePlanes)
	}
	if need, err := ResidentBytes(m, prog, class, knobs, 20, r.TilePlanes, r.K); err != nil || need > float64(budget) {
		t.Fatalf("chosen plan over budget: %v > %d (%v)", need, budget, err)
	}
	if r.Label == "" || r.K < 1 {
		t.Fatalf("malformed decision: %+v", r)
	}
}

func TestPickResidencySlowDiskPrefersLargerK(t *testing.T) {
	m, prog, class, knobs := residencySetup(t)
	whole := wholeBytes(t, m, prog, class, knobs)
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

// TestPickResidencyPricesFootprintOnTheRunningMachine: the footprint is
// priced on m, the machine that runs the tile engines, and the time model on
// the class's UV 2000. On a 64-CPU host shape plain islands, one stage
// environment per island, pick what they pick on the UV 2000 at the same
// modeled time; core islands, one environment per core, pick a narrower tile
// that fits the budget there.
func TestPickResidencyPricesFootprintOnTheRunningMachine(t *testing.T) {
	uv, prog, class, knobs := residencySetup(t)
	wide := topology.Host{Nodes: 1, CPUs: 64}.Run(uv)
	class.Domain.NI = 1536
	const budget = 64 << 20
	for _, core := range []bool{false, true} {
		knobs.CoreIslands = core
		onUV, err := PickResidency(uv, prog, class, knobs, 20, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		onHost, err := PickResidency(wide, prog, class, knobs, 20, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if need, err := ResidentBytes(wide, prog, class, knobs, 20, onHost.TilePlanes, onHost.K); err != nil || need > budget {
			t.Errorf("core=%v: %s needs %.0f bytes on the 64-CPU shape, over the %d-byte budget (%v)", core, onHost.Label, need, budget, err)
		}
		if narrower := onHost.TilePlanes < onUV.TilePlanes; narrower != core {
			t.Errorf("core=%v: picked %s on the 64-CPU shape and %s on the UV 2000", core, onHost.Label, onUV.Label)
		}
		if !core && onHost.Cost.TotalSec != onUV.Cost.TotalSec {
			t.Errorf("%s modeled at %v s on the 64-CPU shape, %v s on the UV 2000: the time model must not follow m",
				onHost.Label, onHost.Cost.TotalSec, onUV.Cost.TotalSec)
		}
	}
}
