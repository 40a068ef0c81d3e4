package mpdata

import (
	"math"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{IORD: 0}).Validate(); err == nil {
		t.Fatal("IORD 0 must be rejected")
	}
	if err := (Options{IORD: 5}).Validate(); err == nil {
		t.Fatal("IORD 5 must be rejected")
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStageCounts(t *testing.T) {
	cases := []struct {
		o    Options
		want int
	}{
		{Options{IORD: 1, NonOscillatory: true}, 4},
		{Options{IORD: 1}, 4},
		{Options{IORD: 2, NonOscillatory: true}, 17},
		{Options{IORD: 2}, 11},
		{Options{IORD: 3, NonOscillatory: true}, 30},
		{Options{IORD: 3}, 18},
	}
	for _, c := range cases {
		kp, err := NewProgramWithOptions(c.o)
		if err != nil {
			t.Fatalf("build %+v: %v", c.o, err)
		}
		if got := len(kp.Stages); got != c.want {
			t.Errorf("built %+v with %d stages, want %d", c.o, got, c.want)
		}
		if _, err := stencil.Analyze(&kp.Program); err != nil {
			t.Errorf("analyze %+v: %v", c.o, err)
		}
	}
}

func TestDefaultOptionsMatchNewProgram(t *testing.T) {
	a := NewProgram()
	b, err := NewProgramWithOptions(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("stage counts differ: %d vs %d", len(a.Stages), len(b.Stages))
	}
	for i := range a.Stages {
		if a.Stages[i].Name != b.Stages[i].Name {
			t.Fatalf("stage %d name differs: %s vs %s", i, a.Stages[i].Name, b.Stages[i].Name)
		}
	}
}

// solveWith advances the given program on a uniform-translation setup and
// returns the L2 error against the exact (periodically shifted) solution.
func solveWith(t *testing.T, o Options, steps int) float64 {
	t.Helper()
	domain := grid.Sz(32, 6, 4)
	state := NewState(domain)
	state.SetGaussian(16, 3, 2, 2.5, 1, 0.05)
	state.SetUniformVelocity(0.5, 0, 0)
	exact := state.Psi.Clone()

	kp, err := NewProgramWithOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		t.Fatal(err)
	}
	whole := grid.WholeRegion(domain)
	for s := 0; s < steps; s++ {
		for _, k := range kp.Kernels {
			k(env, whole)
		}
		state.Psi.CopyFrom(env.Field(OutPsi))
	}
	// 0.5 * 64 steps = 32 cells = one period: exact solution = initial.
	return grid.L2Diff(exact, state.Psi)
}

func TestAccuracyImprovesWithIORD(t *testing.T) {
	const steps = 64
	e1 := solveWith(t, Options{IORD: 1}, steps)
	e2 := solveWith(t, Options{IORD: 2, NonOscillatory: true}, steps)
	e3 := solveWith(t, Options{IORD: 3, NonOscillatory: true}, steps)
	if !(e2 < e1/2) {
		t.Fatalf("IORD=2 (%.4g) must clearly beat IORD=1 (%.4g)", e2, e1)
	}
	if !(e3 < e2) {
		t.Fatalf("IORD=3 (%.4g) must beat IORD=2 (%.4g)", e3, e2)
	}
}

func TestUnlimitedVariantMatchesAccuracyButMayOvershoot(t *testing.T) {
	// On a smooth profile the unlimited IORD=2 variant is about as
	// accurate as the limited one.
	const steps = 64
	eLim := solveWith(t, Options{IORD: 2, NonOscillatory: true}, steps)
	eUnl := solveWith(t, Options{IORD: 2}, steps)
	if eUnl > 2*eLim {
		t.Fatalf("unlimited (%.4g) should be comparable to limited (%.4g) on smooth data", eUnl, eLim)
	}
}

func TestLimiterPreventsOvershoot(t *testing.T) {
	// A sharp step: the unlimited corrective pass overshoots the initial
	// maximum; the non-oscillatory variant must not.
	run := func(o Options) (maxVal float64) {
		domain := grid.Sz(32, 4, 4)
		state := NewState(domain)
		state.SetSphere(10, 2, 2, 4, 2, 0.1)
		state.SetUniformVelocity(0.4, 0, 0)
		kp, err := NewProgramWithOptions(o)
		if err != nil {
			t.Fatal(err)
		}
		env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
		if err != nil {
			t.Fatal(err)
		}
		whole := grid.WholeRegion(domain)
		for s := 0; s < 20; s++ {
			for _, k := range kp.Kernels {
				k(env, whole)
			}
			state.Psi.CopyFrom(env.Field(OutPsi))
		}
		return state.Psi.Max()
	}
	limited := run(Options{IORD: 2, NonOscillatory: true})
	unlimited := run(Options{IORD: 2})
	if limited > 2+1e-12 {
		t.Fatalf("limited variant overshoots: max %.6f > 2", limited)
	}
	if unlimited <= 2+1e-9 {
		t.Fatalf("expected the unlimited variant to overshoot a sharp step, max %.6f", unlimited)
	}
}

func TestIORD1MatchesHandUpwind(t *testing.T) {
	domain := grid.Sz(16, 8, 4)
	state := NewState(domain)
	state.SetGaussian(8, 4, 2, 2, 1, 0.2)
	state.SetUniformVelocity(0.3, -0.1, 0.2)
	want := upwindOnly(state, 5)

	kp, err := NewProgramWithOptions(Options{IORD: 1})
	if err != nil {
		t.Fatal(err)
	}
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		t.Fatal(err)
	}
	whole := grid.WholeRegion(domain)
	for s := 0; s < 5; s++ {
		for _, k := range kp.Kernels {
			k(env, whole)
		}
		state.Psi.CopyFrom(env.Field(OutPsi))
	}
	if d := grid.MaxAbsDiff(want, state.Psi); d > 1e-13 {
		t.Fatalf("IORD=1 differs from hand-written upwind by %g", d)
	}
}

func TestHaloGrowsWithIORD(t *testing.T) {
	ext := func(o Options) stencil.Extent {
		kp, err := NewProgramWithOptions(o)
		if err != nil {
			t.Fatal(err)
		}
		h, err := stencil.Analyze(&kp.Program)
		if err != nil {
			t.Fatal(err)
		}
		return h.InputExtents[InPsi]
	}
	e1 := ext(Options{IORD: 1})
	e2 := ext(Options{IORD: 2, NonOscillatory: true})
	e3 := ext(Options{IORD: 3, NonOscillatory: true})
	if !(e1.ILo < e2.ILo && e2.ILo < e3.ILo) {
		t.Fatalf("psi halo must grow with IORD: %v %v %v", e1, e2, e3)
	}
}

func TestIORD3Conservation(t *testing.T) {
	domain := grid.Sz(16, 16, 8)
	state := NewState(domain)
	state.SetGaussian(8, 8, 4, 2.5, 2, 0.1)
	state.SetUniformVelocity(0.2, 0.15, -0.1)
	kp, err := NewProgramWithOptions(Options{IORD: 3, NonOscillatory: true})
	if err != nil {
		t.Fatal(err)
	}
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		t.Fatal(err)
	}
	mass0 := state.Psi.Sum()
	whole := grid.WholeRegion(domain)
	for s := 0; s < 10; s++ {
		for _, k := range kp.Kernels {
			k(env, whole)
		}
		state.Psi.CopyFrom(env.Field(OutPsi))
		if m := state.Psi.Min(); m < 0 {
			t.Fatalf("negative psi %g at step %d", m, s)
		}
	}
	if rel := math.Abs(state.Psi.Sum()-mass0) / mass0; rel > 1e-12 {
		t.Fatalf("IORD=3 mass drift %e", rel)
	}
}
