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
