package mpdata

import (
	"fmt"
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Diagnostics summarizes the physically meaningful properties of a field.
type Diagnostics struct {
	Mass           float64
	Min, Max       float64
	TotalVariation float64
}

// Diagnose computes the diagnostics of a scalar field.
func Diagnose(f *grid.Field) Diagnostics {
	return Diagnostics{
		Mass:           f.Sum(),
		Min:            f.Min(),
		Max:            f.Max(),
		TotalVariation: TotalVariation(f),
	}
}

func (d Diagnostics) String() string {
	return fmt.Sprintf("mass=%.6g min=%.3g max=%.3g TV=%.6g", d.Mass, d.Min, d.Max, d.TotalVariation)
}

// TotalVariation returns the sum of absolute differences between
// neighbouring cells over all three dimensions (periodic closure). For a
// monotone scheme advecting in one dimension, this quantity cannot grow —
// the discrete signature of the non-oscillatory limiter.
func TotalVariation(f *grid.Field) float64 {
	var tv float64
	d := f.Size
	for i := 0; i < d.NI; i++ {
		for j := 0; j < d.NJ; j++ {
			for k := 0; k < d.NK; k++ {
				v := f.At(i, j, k)
				tv += math.Abs(f.At(stencil.Wrap(i+1, d.NI), j, k) - v)
				tv += math.Abs(f.At(i, stencil.Wrap(j+1, d.NJ), k) - v)
				tv += math.Abs(f.At(i, j, stencil.Wrap(k+1, d.NK)) - v)
			}
		}
	}
	return tv
}

// SetCosineBell places a compactly supported cosine bell of the given radius
// (in cells) and amplitude at (ci,cj,ck) over a background value — smoother
// than a sphere, sharper than a Gaussian; a standard advection test profile.
func (s *State) SetCosineBell(ci, cj, ck, radius, amp, bg float64) {
	s.Psi.FillFunc(func(i, j, k int) float64 {
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		dk := float64(k) + 0.5 - ck
		r := math.Sqrt(di*di + dj*dj + dk*dk)
		if r >= radius {
			return bg
		}
		return bg + amp*0.5*(1+math.Cos(math.Pi*r/radius))
	})
}
