package stencil

import "islands/internal/grid"

// InteriorSplit cuts a region into the interior — where every read within
// the extent stays inside the domain, so kernels may use unchecked flat
// indexing — and the remaining boundary shell, where reads must go through
// the boundary-condition helper. The returned pieces are disjoint and tile r
// exactly.
func InteriorSplit(r grid.Region, e Extent, domain grid.Size) (interior grid.Region, border []grid.Region) {
	r = r.Clamp(domain)
	if r.Empty() {
		return grid.Region{}, nil
	}
	interior = grid.Region{
		I0: max(r.I0, e.ILo), I1: min(r.I1, domain.NI-e.IHi),
		J0: max(r.J0, e.JLo), J1: min(r.J1, domain.NJ-e.JHi),
		K0: max(r.K0, e.KLo), K1: min(r.K1, domain.NK-e.KHi),
	}
	if interior.Empty() {
		return grid.Region{}, []grid.Region{r}
	}
	// Shell pieces: slabs below/above the interior in i, then j, then k.
	add := func(piece grid.Region) {
		if !piece.Empty() {
			border = append(border, piece)
		}
	}
	add(grid.Region{I0: r.I0, I1: interior.I0, J0: r.J0, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: interior.I1, I1: r.I1, J0: r.J0, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: interior.I0, I1: interior.I1, J0: r.J0, J1: interior.J0, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: interior.I0, I1: interior.I1, J0: interior.J1, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: r.K0, K1: interior.K0})
	add(grid.Region{I0: interior.I0, I1: interior.I1, J0: interior.J0, J1: interior.J1, K0: interior.K1, K1: r.K1})
	return interior, border
}

// BorderPiece is one piece of a region's boundary shell in the pinned
// decomposition: along every pinned dimension the piece is a single
// coordinate (Pin), and along every free dimension it spans the interior
// range, so all reads along free dimensions stay in-domain. Because each
// pinned dimension has one fixed coordinate, the boundary-condition
// resolution of every read offset is uniform across the whole piece — a
// schedule compiler can resolve it once (Env.BindPiece) and run the flat
// fast-path kernel over the piece instead of the per-cell checked path.
type BorderPiece struct {
	Region grid.Region
	Pinned [3]bool
	Pin    [3]int
}

// zone is one choice along a dimension: a pinned single coordinate or the
// interior span.
type zone struct {
	lo, hi int
	pinned bool
}

// dimZones cuts [r0, r1) into single-coordinate zones below the interior
// range [lo, hi), the interior span, and single-coordinate zones above it.
func dimZones(r0, r1, lo, hi int) []zone {
	var zs []zone
	lo = max(lo, r0)
	hi = min(hi, r1)
	if hi < lo {
		// No interior along this dimension: every coordinate is pinned.
		lo, hi = r1, r1
	}
	for c := r0; c < lo; c++ {
		zs = append(zs, zone{c, c + 1, true})
	}
	if hi > lo {
		zs = append(zs, zone{lo, hi, false})
	}
	for c := hi; c < r1; c++ {
		zs = append(zs, zone{c, c + 1, true})
	}
	return zs
}

// BorderPieces decomposes region r like InteriorSplit — into the interior,
// where every read within extent e stays in-domain, and the boundary shell —
// but returns the shell as pinned pieces (the cross product of per-dimension
// zones, excluding the all-interior combination). The pieces plus the
// interior tile r exactly and are pairwise disjoint.
func BorderPieces(r grid.Region, e Extent, domain grid.Size) (interior grid.Region, pieces []BorderPiece) {
	r = r.Clamp(domain)
	if r.Empty() {
		return grid.Region{}, nil
	}
	zi := dimZones(r.I0, r.I1, e.ILo, domain.NI-e.IHi)
	zj := dimZones(r.J0, r.J1, e.JLo, domain.NJ-e.JHi)
	zk := dimZones(r.K0, r.K1, e.KLo, domain.NK-e.KHi)
	for _, a := range zi {
		for _, b := range zj {
			for _, c := range zk {
				reg := grid.Region{I0: a.lo, I1: a.hi, J0: b.lo, J1: b.hi, K0: c.lo, K1: c.hi}
				if !a.pinned && !b.pinned && !c.pinned {
					interior = reg
					continue
				}
				pieces = append(pieces, BorderPiece{
					Region: reg,
					Pinned: [3]bool{a.pinned, b.pinned, c.pinned},
					Pin:    [3]int{a.lo, b.lo, c.lo},
				})
			}
		}
	}
	return interior, pieces
}

// RowPieces is BorderPieces for a row-capable kernel (see Kernel): the region
// is cut along i and j only, so the interior and every piece span r's whole k
// range and none is pinned along k — the interior plus at most eight pieces
// for extents of one cell, instead of up to 26. The k faces are the kernel's.
func RowPieces(r grid.Region, e Extent, domain grid.Size) (interior grid.Region, pieces []BorderPiece) {
	e.KLo, e.KHi = 0, 0
	return BorderPieces(r, e, domain)
}

// Subtract returns up to six disjoint rectangles that tile r minus inner.
// inner must be contained in r (or empty, in which case r is returned
// whole). The decomposition mirrors InteriorSplit's shell: i-slabs below and
// above inner, then j-slabs, then k-slabs. The fused schedule compiler uses
// it to peel the per-stage halo strips off a group's common region.
func Subtract(r, inner grid.Region) []grid.Region {
	if r.Empty() {
		return nil
	}
	if inner.Empty() {
		return []grid.Region{r}
	}
	var out []grid.Region
	add := func(piece grid.Region) {
		if !piece.Empty() {
			out = append(out, piece)
		}
	}
	add(grid.Region{I0: r.I0, I1: inner.I0, J0: r.J0, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: inner.I1, I1: r.I1, J0: r.J0, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: inner.I0, I1: inner.I1, J0: r.J0, J1: inner.J0, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: inner.I0, I1: inner.I1, J0: inner.J1, J1: r.J1, K0: r.K0, K1: r.K1})
	add(grid.Region{I0: inner.I0, I1: inner.I1, J0: inner.J0, J1: inner.J1, K0: r.K0, K1: inner.K0})
	add(grid.Region{I0: inner.I0, I1: inner.I1, J0: inner.J0, J1: inner.J1, K0: inner.K1, K1: r.K1})
	return out
}

// ForEachRow visits the region row by row: fn receives (i, j) and the flat
// index of cell (i, j, r.K0); the caller iterates k itself over
// [base, base + (r.K1-r.K0)). This removes per-cell index arithmetic and
// closure calls from kernel inner loops.
func ForEachRow(domain grid.Size, r grid.Region, fn func(i, j, base int)) {
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			fn(i, j, (i*domain.NJ+j)*domain.NK+r.K0)
		}
	}
}

// OffsetStride converts an offset to a flat-index displacement.
func OffsetStride(domain grid.Size, o Offset) int {
	return (o.DI*domain.NJ+o.DJ)*domain.NK + o.DK
}
