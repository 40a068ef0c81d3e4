package mpdata

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// The fused kernels of fused.go are row-capable (stencil.Kernel): a region
// handed to them with k unpinned keeps its rows whole, and the one or two
// cells of a row that read across a k face are computed in the visit of that
// row, through the environment pinned at their k. This file cuts a region
// into what such a visit consists of.

// rowSeg is the cells [K0, K1) of every row of a region, and the environment
// their reads resolve through.
type rowSeg struct {
	env stencil.Env
	reg grid.Region
}

// rowPass is one sweep over a region's rows: the body cells of every row
// (seg[0], read through the caller's environment) and, riding in the same row
// visit, the end cell at k = 0 (seg[1]) and at k = NK-1 (seg[2]), each read
// through that environment pinned at its k. ends says which end cells are
// present: bit 0 for seg[1], bit 1 for seg[2].
type rowPass struct {
	seg  [3]rowSeg
	ends int
}

// has reports whether segment s of the pass is present.
func (p *rowPass) has(s int) bool { return s == 0 || p.ends>>(s-1)&1 != 0 }

// rowPasses cuts region r of env into the passes of a kernel that reads kLo
// cells below and kHi cells above a cell along k (0 or 1 each — every MPDATA
// stage), returned in buf. An environment already pinned along k is a border
// piece resolved by the caller, and a region clear of the faces the kernel
// reads across has no end cells: one pass, the region as its body. A region
// whose rows are nothing but end cells (NK <= 2, or one cell deep at a face)
// gives each end a pass of its own, as the body of its pinned environment.
func rowPasses(env *stencil.Env, r grid.Region, kLo, kHi int, buf *[2]rowPass) []rowPass {
	if r.Empty() {
		return buf[:0]
	}
	nk := env.Domain.NK
	body, ends := r, 0
	if !env.KPinned() {
		if kLo > 0 && r.K0 == 0 {
			ends |= 1
			body.K0 = 1
		}
		if kHi > 0 && r.K1 == nk && body.K0 < nk {
			ends |= 2
			body.K1 = nk - 1
		}
	}
	end := func(k int) rowSeg {
		at := r
		at.K0, at.K1 = k, k+1
		return rowSeg{env: env.PinK(k), reg: at}
	}
	if ends == 0 || !body.Empty() {
		p := &buf[0]
		p.ends = ends
		p.seg[0] = rowSeg{env: *env, reg: body}
		if ends&1 != 0 {
			p.seg[1] = end(0)
		}
		if ends&2 != 0 {
			p.seg[2] = end(nk - 1)
		}
		return buf[:1]
	}
	n := 0
	if ends&1 != 0 {
		buf[n] = rowPass{seg: [3]rowSeg{end(0)}}
		n++
	}
	if ends&2 != 0 {
		buf[n] = rowPass{seg: [3]rowSeg{end(nk - 1)}}
		n++
	}
	return buf[:n]
}

// forEachRow visits the pass row by row for a scalar body: fn receives the
// segment, the flat index of its first cell in the row and its length — the
// body, then the end cells the row has.
func (p *rowPass) forEachRow(fn func(s, base, n int)) {
	body := p.seg[0].reg
	n := body.K1 - body.K0
	stencil.ForEachRow(p.seg[0].env.Domain, body, func(_, _, base int) {
		fn(0, base, n)
		if p.ends&1 != 0 {
			fn(1, base-1, 1)
		}
		if p.ends&2 != 0 {
			fn(2, base+n, 1)
		}
	})
}

// rowGeom is the shape of a non-empty region as a vector body walks it:
// planes of rows of n cells, the strides in bytes.
type rowGeom struct {
	n, rows, planes        int
	rowStride, planeStride int
}

// vecRegion is a region prepared for a vector body: its shape, the flat index
// of its first cell and the number of cells from there to its last.
type vecRegion struct {
	rowGeom
	first, span int
}

func vecRegionOf(domain grid.Size, r grid.Region) (g vecRegion) {
	planeCells := domain.NJ * domain.NK
	g.n, g.rows, g.planes = r.K1-r.K0, r.J1-r.J0, r.I1-r.I0
	g.rowStride, g.planeStride = domain.NK*grid.CellBytes, planeCells*grid.CellBytes
	g.first = r.I0*planeCells + r.J0*domain.NK + r.K0
	g.span = (g.planes-1)*planeCells + (g.rows-1)*domain.NK + g.n
	return g
}

// vec returns segment s of the pass as a vector body walks it. The three
// segments share rows, planes and strides, so the body's geometry walks them
// all; they differ in their first cell and in n.
func (p *rowPass) vec(s int) vecRegion {
	return vecRegionOf(p.seg[s].env.Domain, p.seg[s].reg)
}

// at returns the stream pointer for a stream whose first cell is s[first+o].
// The slice expression is the bounds proof for everything the vector body
// will touch through it — one check per stream and segment instead of one per
// cell — so a region reaching outside the fields panics here, in Go. A
// vector body walks a row's end cells as lanes of its first and last vector
// (fused_amd64.s): a stream whose k offset does not cross the face resolves
// to the same offset under the pinned environment (Env.Step), so its end
// segment's proof covers that lane of the body's pointer; a stream whose
// offset crosses it is read there through its end segment's pointer only.
func (g *vecRegion) at(s []float64, o int) *float64 {
	lo := g.first + o
	return &s[lo : lo+g.span : len(s)][0]
}
