package serve

import (
	"math"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/solver"
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

// TestResetRestoresTheFirstFill: only an engine's first Reset runs the
// problem fill; later ones copy back the fields its steps wrote. Every catalog
// solver under every strategy must repeat a fresh engine's job bit for bit
// after each such Reset — through swap+halo too, where the restored field has
// to reach the islands' private buffers — and a restoring Reset allocates
// nothing.
func TestResetRestoresTheFirstFill(t *testing.T) {
	const steps = 3
	strategies := []Spec{
		{Strategy: "original"}, {Strategy: "3+1d"},
		{Strategy: "islands"}, {Strategy: "islands", CoreIslands: true},
	}
	swapHalo := 0
	for _, name := range solver.Names() {
		entry, err := solver.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		// The k extent the entry's component packing accepts.
		nk := 7
		for _, c := range []int{7, 9, 3, 2} {
			if entry.CheckDomain == nil || entry.CheckDomain(grid.Sz(32, 16, c)) == nil {
				nk = c
				break
			}
		}
		for _, spec := range strategies {
			spec.Solver, spec.Grid, spec.Steps = name, grid.Sz(32, 16, nk).String(), steps
			ns, err := spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := NewSolverEngine(ns)
			if err != nil {
				t.Fatal(err)
			}
			run := func() Checksums {
				t.Helper()
				if err := eng.Reset(); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < steps; s++ {
					if err := eng.Step(); err != nil {
						t.Fatal(err)
					}
				}
				return eng.Checksums()
			}
			label := name + " " + ns.StrategyName()
			fresh := run()
			for job := 2; job <= 3; job++ {
				if got := run(); !sameBits(got, fresh) {
					t.Errorf("%s: job %d on the engine reports %+v, its first job %+v", label, job, got, fresh)
				}
			}
			if n := testing.AllocsPerRun(5, func() { _ = eng.Reset() }); n != 0 {
				t.Errorf("%s: a restoring Reset allocates %v times", label, n)
			}
			if eng.(*solverEngine).runner.Schedule().Feedback() == exec.FeedbackSwapHalo {
				swapHalo++
			}
			eng.Close()
		}
	}
	if swapHalo == 0 {
		t.Fatal("no case compiled swap+halo: the restore into private feedback buffers went unchecked")
	}
}

// sameBits compares checksums bit for bit (a NaN equals itself).
func sameBits(a, b Checksums) bool {
	for _, p := range [][2]float64{{a.Sum, b.Sum}, {a.Min, b.Min}, {a.Max, b.Max}, {a.MassDrift, b.MassDrift}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}
