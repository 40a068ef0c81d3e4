package mpdata

import (
	"math"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

func TestTotalVariation1D(t *testing.T) {
	f := grid.NewField("x", grid.Sz(4, 1, 1))
	f.Data = []float64{0, 1, 0, 1}
	// i-direction: |1|+|1|+|1|+|1| = 4; j/k wrap to themselves: 0.
	if got := TotalVariation(f); got != 4 {
		t.Fatalf("TV = %v, want 4", got)
	}
	f.Fill(3)
	if got := TotalVariation(f); got != 0 {
		t.Fatalf("constant TV = %v, want 0", got)
	}
}

// TestLimiterIsTVD: advecting a step profile in 1D, the non-oscillatory
// MPDATA never increases total variation (the TVD property); the unlimited
// variant does.
func TestLimiterIsTVD(t *testing.T) {
	run := func(o Options) (maxGrowth float64) {
		domain := grid.Sz(48, 1, 1)
		state := NewState(domain)
		state.Psi.FillFunc(func(i, j, k int) float64 {
			if i >= 10 && i < 22 {
				return 2
			}
			return 0.1
		})
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
		tv := TotalVariation(state.Psi)
		for s := 0; s < 30; s++ {
			for _, k := range kp.Kernels {
				k(env, whole)
			}
			state.Psi.CopyFrom(env.Field(OutPsi))
			next := TotalVariation(state.Psi)
			if g := next - tv; g > maxGrowth {
				maxGrowth = g
			}
			tv = next
		}
		return maxGrowth
	}
	if g := run(DefaultOptions()); g > 1e-12 {
		t.Fatalf("non-oscillatory MPDATA grew TV by %g", g)
	}
	if g := run(Options{IORD: 2}); g <= 1e-9 {
		t.Fatalf("unlimited variant should grow TV on a step, grew only %g", g)
	}
}

func TestCosineBell(t *testing.T) {
	state := NewState(grid.Sz(32, 32, 8))
	state.SetCosineBell(16, 16, 4, 6, 2, 0.1)
	// Peak at the center, background outside the radius, continuous at
	// the edge.
	// The nearest cell center sits sqrt(0.75) cells off the bell center:
	// 0.1 + 2*0.5*(1+cos(pi*0.866/6)) = 2.00.
	if got := state.Psi.At(16, 16, 4); math.Abs(got-2.0) > 0.05 {
		t.Fatalf("peak = %v, want ~2.0", got)
	}
	if got := state.Psi.At(0, 0, 0); got != 0.1 {
		t.Fatalf("background = %v, want 0.1", got)
	}
	if got := state.Psi.At(16+7, 16, 4); got != 0.1 {
		t.Fatalf("outside radius = %v, want background", got)
	}
}

func TestDiagnoseString(t *testing.T) {
	f := grid.NewField("x", grid.Sz(2, 2, 2))
	f.Fill(1)
	d := Diagnose(f)
	if d.Mass != 8 || d.Min != 1 || d.Max != 1 || d.TotalVariation != 0 {
		t.Fatalf("diagnostics wrong: %+v", d)
	}
	if !strings.Contains(d.String(), "mass=8") {
		t.Fatalf("String() = %q", d.String())
	}
}
