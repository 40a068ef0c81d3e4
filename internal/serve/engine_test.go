package serve

import (
	"math"
	"testing"
)

// TestChecksumsMatchFieldReductions: the engine's single walk over the
// solution reports the bits of Field.Sum, Min and Max — what the sequential
// references and the streamed engine are compared against.
func TestChecksumsMatchFieldReductions(t *testing.T) {
	ns, err := Spec{Grid: "24x10x7", Steps: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSolverEngine(ns)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ns.Steps; s++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	got := eng.Checksums()
	out := eng.(*solverEngine).out
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"sum", got.Sum, out.Sum()}, {"min", got.Min, out.Min()}, {"max", got.Max, out.Max()}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("%s = %v, the field reduces to %v", c.name, c.got, c.want)
		}
	}
}

// TestResetKeepsTheInitialMass: an engine sums its problem fill at the first
// Reset only. A pooled engine on its second job and a fresh one must still
// report the same bits — the drift most of all, which divides by that sum.
func TestResetKeepsTheInitialMass(t *testing.T) {
	ns, err := Spec{Grid: "24x10x7", Steps: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	run := func(eng Engine) Checksums {
		t.Helper()
		if err := eng.Reset(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < ns.Steps; s++ {
			if err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return eng.Checksums()
	}
	reused, err := NewSolverEngine(ns)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	first := run(reused)
	second := run(reused)
	fresh, err := NewSolverEngine(ns)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := run(fresh)
	if want.MassDrift == 0 {
		t.Fatal("the problem drifts by exactly 0: the comparison below checks nothing")
	}
	for name, got := range map[string]Checksums{"first job": first, "second job": second} {
		if got != want {
			t.Errorf("%s on a reused engine: %+v, a fresh engine reports %+v", name, got, want)
		}
		if math.Float64bits(got.MassDrift) != math.Float64bits(want.MassDrift) {
			t.Errorf("%s: mass drift %x, fresh %x", name, math.Float64bits(got.MassDrift), math.Float64bits(want.MassDrift))
		}
	}
}
