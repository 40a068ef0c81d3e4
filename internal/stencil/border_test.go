package stencil

import (
	"math/rand"
	"testing"

	"islands/internal/grid"
)

// TestBorderPiecesTiling checks the decomposition invariants on a mix of
// region shapes: the interior matches InteriorSplit, the pieces plus the
// interior tile the region exactly (every cell covered once), and every
// pinned dimension of a piece is a single coordinate.
func TestBorderPiecesTiling(t *testing.T) {
	domain := grid.Sz(9, 7, 5)
	ext := Extent{ILo: 1, IHi: 2, JLo: 1, JHi: 1, KLo: 2, KHi: 1}
	regions := []grid.Region{
		grid.WholeRegion(domain),
		{I0: 0, I1: 3, J0: 0, J1: 7, K0: 0, K1: 5},   // left slab
		{I0: 2, I1: 5, J0: 2, J1: 5, K0: 2, K1: 4},   // fully interior
		{I0: 8, I1: 9, J0: 6, J1: 7, K0: 4, K1: 5},   // far corner cell
		{I0: 0, I1: 9, J0: 3, J1: 4, K0: 0, K1: 5},   // one j-plane
		{I0: 0, I1: 2, J0: 0, J1: 1, K0: 0, K1: 1},   // all-border corner block
		{I0: -2, I1: 20, J0: 0, J1: 7, K0: 0, K1: 5}, // clamped to domain
	}
	for _, r := range regions {
		wantInterior, _ := InteriorSplit(r, ext, domain)
		interior, pieces := BorderPieces(r, ext, domain)
		if interior != wantInterior {
			t.Fatalf("region %v: interior %v, want %v", r, interior, wantInterior)
		}
		requireTiling(t, r.Clamp(domain), interior, pieces)
	}
}

// requireTiling checks that interior and pieces tile rc exactly — every cell
// covered once — and that every piece pins at least one dimension, each
// pinned dimension at a single coordinate.
func requireTiling(t *testing.T, rc, interior grid.Region, pieces []BorderPiece) {
	t.Helper()
	seen := make(map[[3]int]int)
	mark := func(reg grid.Region) {
		ForEach(reg, func(i, j, k int) { seen[[3]int{i, j, k}]++ })
	}
	mark(interior)
	for _, p := range pieces {
		mark(p.Region)
		for d := 0; d < 3; d++ {
			lo := [3]int{p.Region.I0, p.Region.J0, p.Region.K0}[d]
			hi := [3]int{p.Region.I1, p.Region.J1, p.Region.K1}[d]
			if p.Pinned[d] && (hi-lo != 1 || p.Pin[d] != lo) {
				t.Fatalf("region %v: pinned dim %d of piece %+v is not a single coordinate", rc, d, p)
			}
		}
		if p.Pinned == [3]bool{} {
			t.Fatalf("region %v: piece %+v pins no dimension", rc, p)
		}
	}
	covered := 0
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("region %v: cell %v covered %d times", rc, c, n)
		}
		covered++
	}
	if covered != int(rc.Cells()) {
		t.Fatalf("region %v: covered %d cells, want %d", rc, covered, rc.Cells())
	}
}

// TestRowPiecesKeepRowsWhole is the property a row-capable kernel's
// decomposition must have, on random domains, regions and extents of at most
// one cell: the interior and the pieces tile the region exactly and pairwise
// disjoint, none is pinned along k, each spans the region's whole k range,
// there are at most 9 of them, and the (i,j) cut is the one BorderPieces
// makes. PinK then supplies what the k cut would have: a piece's environment
// pinned at a face resolves every offset as the environment bound to the
// corresponding piece of the full decomposition.
func TestRowPiecesKeepRowsWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 0; n < 300; n++ {
		domain := grid.Sz(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6))
		ext := Extent{ILo: rng.Intn(2), IHi: rng.Intn(2), JLo: rng.Intn(2), JHi: rng.Intn(2), KLo: rng.Intn(2), KHi: rng.Intn(2)}
		span := func(n int) (int, int) {
			lo := rng.Intn(n)
			return lo, lo + 1 + rng.Intn(n-lo)
		}
		var r grid.Region
		r.I0, r.I1 = span(domain.NI)
		r.J0, r.J1 = span(domain.NJ)
		r.K0, r.K1 = span(domain.NK)
		interior, pieces := RowPieces(r, ext, domain)
		requireTiling(t, r, interior, pieces)
		if len(pieces) > 8 {
			t.Fatalf("%v ext %+v: %d pieces, want at most 8 beside the interior", r, ext, len(pieces))
		}
		for _, p := range pieces {
			if p.Pinned[2] || p.Region.K0 != r.K0 || p.Region.K1 != r.K1 {
				t.Fatalf("%v ext %+v: piece %+v cuts k", r, ext, p)
			}
		}
		if !interior.Empty() && (interior.K0 != r.K0 || interior.K1 != r.K1) {
			t.Fatalf("%v ext %+v: interior %v cuts k", r, ext, interior)
		}

		// Every piece of the full decomposition lies in one row piece (or the
		// row interior) with the same (i,j) pins, and PinK at its k recovers
		// its binding.
		env := &Env{Domain: domain, BC: Boundary(n % 2)}
		rows := append([]BorderPiece{{Region: interior}}, pieces...)
		_, full := BorderPieces(r, ext, domain)
		for _, fp := range full {
			var home *BorderPiece
			for i := range rows {
				if rows[i].Region.Intersect(fp.Region) == fp.Region {
					home = &rows[i]
				}
			}
			if home == nil || home.Pinned[0] != fp.Pinned[0] || home.Pinned[1] != fp.Pinned[1] {
				t.Fatalf("%v ext %+v: piece %+v has no row piece with its (i,j) pins", r, ext, fp)
			}
			if !fp.Pinned[2] {
				continue
			}
			want, got := env.BindPiece(fp), env.BindPiece(*home).PinK(fp.Pin[2])
			if !got.KPinned() {
				t.Fatal("PinK left k unpinned")
			}
			for d := 0; d < 3; d++ {
				for delta := -2; delta <= 2; delta++ {
					if got.Step(d, delta) != want.Step(d, delta) {
						t.Fatalf("%v ext %+v piece %+v: Step(%d,%d) under PinK = %d, bound to the piece %d",
							r, ext, fp, d, delta, got.Step(d, delta), want.Step(d, delta))
					}
				}
			}
		}
	}
}

func TestBorderPiecesEmptyRegion(t *testing.T) {
	domain := grid.Sz(4, 4, 4)
	interior, pieces := BorderPieces(grid.Region{I0: 2, I1: 2, J0: 0, J1: 4, K0: 0, K1: 4}, Extent{}, domain)
	if !interior.Empty() || pieces != nil {
		t.Fatalf("empty region produced interior %v, %d pieces", interior, len(pieces))
	}
}

// TestEnvStepMatchesAtP checks that a border-bound environment resolves read
// offsets to exactly the cells AtP would read, under both boundary modes —
// the property that makes running fast kernels on border pieces bit-identical
// to the checked slow path.
func TestEnvStepMatchesAtP(t *testing.T) {
	domain := grid.Sz(5, 4, 3)
	f := grid.NewField("f", domain)
	for n := range f.Data {
		f.Data[n] = float64(n)
	}
	for _, bc := range []Boundary{Periodic, Clamp} {
		env := &Env{Domain: domain, BC: bc, fields: map[string]*grid.Field{"f": f}}
		// Every border piece of the whole domain under a wide extent.
		_, pieces := BorderPieces(grid.WholeRegion(domain), Extent{ILo: 2, IHi: 2, JLo: 1, JHi: 1, KLo: 1, KHi: 1}, domain)
		offs := []Offset{
			{DI: -2}, {DI: 1}, {DJ: -1}, {DJ: 1}, {DK: -1}, {DK: 1},
			{DI: 1, DJ: -1}, {DI: -2, DK: 1}, {DI: 1, DJ: 1, DK: -1},
		}
		for _, p := range pieces {
			bound := env.BindPiece(p)
			for _, o := range offs {
				d := bound.OffsetStride(o)
				ForEach(p.Region, func(i, j, k int) {
					n := f.Index(i, j, k)
					got := f.Data[n+d]
					want := env.AtP(f, i+o.DI, j+o.DJ, k+o.DK)
					if got != want {
						t.Fatalf("bc=%v piece %+v offset %+v at (%d,%d,%d): resolved read %v, AtP %v",
							bc, p, o, i, j, k, got, want)
					}
				})
			}
		}
		// Unbound environments must resolve like the raw strides.
		for _, o := range offs {
			if env.OffsetStride(o) != OffsetStride(domain, o) {
				t.Fatalf("unbound OffsetStride(%+v) = %d, want %d", o, env.OffsetStride(o), OffsetStride(domain, o))
			}
		}
	}
}

// TestBindPieceSharesFields checks that bound clones observe field-data swaps
// on the original environment (the buffer-swap feedback path).
func TestBindPieceSharesFields(t *testing.T) {
	domain := grid.Sz(3, 3, 3)
	f := grid.NewField("f", domain)
	env := &Env{Domain: domain, fields: map[string]*grid.Field{"f": f}}
	bound := env.BindPiece(BorderPiece{Pinned: [3]bool{true, false, false}})
	g := grid.NewField("g", domain)
	g.Fill(7)
	grid.SwapData(env.Field("f"), g)
	if bound.Field("f").Data[0] != 7 {
		t.Fatal("bound clone did not observe SwapData on the shared field")
	}
}
