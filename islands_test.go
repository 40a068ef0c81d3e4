package islands

import (
	"math"
	"testing"

	"islands/internal/mpdata"
	"islands/internal/perf"
)

func TestSimulationRunConserves(t *testing.T) {
	// Clamp boundaries match the production MPDATA configuration (and the
	// islands halo accounting); the blob is kept clear of the edges.
	sim, err := NewSimulation(Sz(24, 16, 8), Config{
		Processors: 2, Strategy: IslandsOfCores, Boundary: Clamp,
		Steps: 5, BlockI: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.State.SetGaussian(12, 8, 4, 2, 1, 0.1)
	sim.State.SetUniformVelocity(0.2, 0.1, 0)
	before := sim.State.Psi.Sum()
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	after := sim.State.Psi.Sum()
	// Clamp boundaries leak a little mass at the edges; the blob is
	// centered, so drift stays small.
	if rel := math.Abs(after-before) / before; rel > 0.05 {
		t.Fatalf("mass drift %.3f", rel)
	}
	if sim.State.Psi.Min() < 0 {
		t.Fatal("positivity violated")
	}
}

func TestStrategiesAgreeViaPublicAPI(t *testing.T) {
	run := func(s Strategy) []float64 {
		sim, err := NewSimulation(Sz(20, 12, 6), Config{
			Processors: 2, Strategy: s, Boundary: Clamp, Steps: 3, BlockI: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		sim.State.SetGaussian(10, 6, 3, 2, 1, 0.1)
		sim.State.SetRotationVelocityZ(0.02)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.State.Psi.Data
	}
	a, b, c := run(Original), run(Plus31D), run(IslandsOfCores)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("strategies disagree at %d: %v %v %v", i, a[i], b[i], c[i])
		}
	}
}

func TestPredictOrdering(t *testing.T) {
	domain := Sz(512, 256, 32)
	cfgAt := func(s Strategy) *Prediction {
		p, err := Predict(domain, Config{Processors: 8, Strategy: s,
			Placement: FirstTouchParallel, Steps: 10})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	orig, blocked, isl := cfgAt(Original), cfgAt(Plus31D), cfgAt(IslandsOfCores)
	if !(isl.Time < orig.Time && isl.Time < blocked.Time) {
		t.Fatalf("islands must win at P=8: %v %v %v", orig.Time, blocked.Time, isl.Time)
	}
	if isl.ExtraElementsPct <= 0 {
		t.Fatal("islands prediction must report redundancy")
	}
	if orig.MemTrafficGB <= blocked.MemTrafficGB {
		t.Fatal("original must move more memory than blocked strategies")
	}
}

// TestPaperTable2Public checks Table 2 at the paper's domain as
// cmd/paper-tables prints it: linear growth, variant B twice variant A,
// small absolute values (paper A: 3.21% at 14 islands; the 17-stage graph
// yields 2.76%).
func TestPaperTable2Public(t *testing.T) {
	tab, err := perf.Table2(&mpdata.NewProgram().Program, Sz(1024, 512, 64), 14)
	if err != nil {
		t.Fatal(err)
	}
	va := tab.Rows[0].Values
	vb := tab.Rows[1].Values
	if va[13] < 2 || va[13] > 4 {
		t.Fatalf("variant A at 14 islands: %.2f%%, want 2-4%%", va[13])
	}
	if r := vb[13] / va[13]; math.Abs(r-2) > 0.05 {
		t.Fatalf("B/A ratio %.3f, want ~2", r)
	}
}

// TestPaperTrafficTablePublic checks the shape of the §3.2 single-socket
// traffic comparison as cmd/paper-tables prints it.
func TestPaperTrafficTablePublic(t *testing.T) {
	tab, err := perf.TrafficTable(&mpdata.NewProgram().Program)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("traffic table rows = %d", len(tab.Rows))
	}
}

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(Sz(8, 8, 8), Config{Processors: 1}); err == nil {
		t.Fatal("expected error for zero steps")
	}
	if _, err := Predict(Sz(8, 8, 8), Config{Processors: 20, Steps: 1}); err == nil {
		t.Fatal("expected error for 20 processors")
	}
	if _, err := NewSimulation(Sz(8, 8, 8), Config{Processors: 0, Steps: 1}); err == nil {
		t.Fatal("expected error for zero processors")
	}
}
