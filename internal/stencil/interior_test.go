package stencil

import (
	"math/rand"
	"testing"
	"testing/quick"

	"islands/internal/grid"
)

func TestInteriorSplitBasic(t *testing.T) {
	domain := grid.Sz(10, 10, 10)
	r := grid.WholeRegion(domain)
	e := Extent{ILo: 1, IHi: 1, JLo: 1, JHi: 1, KLo: 1, KHi: 1}
	interior, border := InteriorSplit(r, e, domain)
	want := grid.Box(1, 9, 1, 9, 1, 9)
	if interior != want {
		t.Fatalf("interior = %v, want %v", interior, want)
	}
	total := interior.Cells()
	for _, b := range border {
		total += b.Cells()
	}
	if total != r.Cells() {
		t.Fatalf("pieces cover %d cells, want %d", total, r.Cells())
	}
}

func TestInteriorSplitAllBorder(t *testing.T) {
	domain := grid.Sz(4, 4, 4)
	e := Extent{ILo: 3, IHi: 3, JLo: 0, JHi: 0, KLo: 0, KHi: 0}
	interior, border := InteriorSplit(grid.WholeRegion(domain), e, domain)
	if !interior.Empty() {
		t.Fatalf("interior should be empty, got %v", interior)
	}
	if len(border) != 1 || border[0].Cells() != 64 {
		t.Fatalf("border = %v", border)
	}
}

// TestInteriorSplitProperties: pieces are disjoint, tile r exactly, and the
// interior keeps every read of the extent in-domain.
func TestInteriorSplitProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		domain := grid.Sz(3+rng.Intn(12), 3+rng.Intn(12), 3+rng.Intn(12))
		lo := func(n int) int { return rng.Intn(n) }
		r := grid.Box(lo(domain.NI), domain.NI-lo(2), lo(domain.NJ), domain.NJ-lo(2), lo(domain.NK), domain.NK-lo(2))
		if r.Empty() {
			return true
		}
		e := Extent{rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3), rng.Intn(3)}
		interior, border := InteriorSplit(r, e, domain)
		pieces := append([]grid.Region{}, border...)
		if !interior.Empty() {
			pieces = append(pieces, interior)
			// Interior reads stay in-domain.
			grown := e.Apply(interior)
			if !grid.WholeRegion(domain).ContainsRegion(grown) {
				return false
			}
		}
		total := 0
		for i, a := range pieces {
			total += a.Cells()
			for j, b := range pieces {
				if i != j && !a.Intersect(b).Empty() {
					return false
				}
			}
			if !r.ContainsRegion(a) {
				return false
			}
		}
		return total == r.Cells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStrides(t *testing.T) {
	domain := grid.Sz(4, 5, 6)
	if got := OffsetStride(domain, Offset{DI: 1, DJ: -2, DK: 3}); got != 30-12+3 {
		t.Fatalf("OffsetStride = %d", got)
	}
}

func TestForEachRow(t *testing.T) {
	domain := grid.Sz(3, 4, 5)
	r := grid.Box(1, 3, 1, 3, 1, 4)
	f := grid.NewField("f", domain)
	ForEachRow(domain, r, func(i, j, base int) {
		for k := 0; k < r.K1-r.K0; k++ {
			f.Data[base+k]++
		}
	})
	// Exactly the region's cells touched once.
	for i := 0; i < domain.NI; i++ {
		for j := 0; j < domain.NJ; j++ {
			for k := 0; k < domain.NK; k++ {
				want := 0.0
				if r.Contains(i, j, k) {
					want = 1
				}
				if f.At(i, j, k) != want {
					t.Fatalf("cell (%d,%d,%d) touched %v times, want %v", i, j, k, f.At(i, j, k), want)
				}
			}
		}
	}
}
