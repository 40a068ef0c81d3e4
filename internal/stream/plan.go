// Package stream implements the out-of-core tile streaming executor: it runs
// MPDATA on domains too large for the configured memory budget by cutting the
// domain along the outer (i) axis into resident tiles widened by k-step
// halos, backing the full psi field with an on-disk ping/pong plane store
// (grid.PlaneFile), and driving each tile through the existing compiled-
// schedule engine for k steps per residency while a prefetch goroutine
// double-buffers the next tile's load (and the previous tile's writeback)
// against compute.
//
// Correctness rests on the same redundant-trapezoid argument as the paper's
// islands: a tile's input is its owned plane range grown by the feedback
// stencil's k-step extent, so after k uninterrupted steps the owned cells are
// bit-identical to a resident run — contamination from the cut edges (where
// the tile engine applies the global boundary condition to what is really
// domain interior) propagates at most one step-extent per step and dies in
// the discarded halo shell. Real domain edges coincide with tile edges, so
// the boundary condition is applied exactly where the resident run applies
// it; under a periodic i-boundary the halo planes are loaded mod NI. The
// tile engine computes no more than that trapezoid wherever it can run the
// k steps as one block: its output window (exec.Config.Keep) is the owned
// planes, so the halo planes are read and never recomputed. See
// docs/STREAMING.md.
//
// Because the halo argument holds regardless of the boundary condition, the
// streamed result is solver-exact even for IslandsOfCores under Periodic —
// a combination where the resident executor itself leaves stale wrap-edge
// values (see TestStreamIslandsPeriodicSolverExact).
package stream

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Tile is one resident unit of work: the owned global plane range [Lo, Hi).
// Its on-disk writeback covers exactly these planes; its load additionally
// covers the halo planes the Plan records.
type Tile struct {
	Lo, Hi int
}

// Width returns the owned plane count.
func (t Tile) Width() int { return t.Hi - t.Lo }

// Plan is the tile geometry of one streamed run: the domain cut into tiles
// of at most TilePlanes owned i-planes, each widened by the k-step feedback
// halo, advanced K steps per residency over Sweeps passes.
type Plan struct {
	Domain grid.Size
	Steps  int
	// K is the temporal-blocking factor of the stream: steps advanced per
	// tile residency. The halo width and the sweep count derive from it.
	K      int
	Sweeps int
	// TilePlanes is the owned-plane bound each tile was cut to.
	TilePlanes int
	// ExtLo/ExtHi are the k-step feedback halo planes below/above a tile
	// (fext.Scale(K) along i); zero for a single whole-domain tile.
	ExtLo, ExtHi int
	Tiles        []Tile
	Boundary     stencil.Boundary
}

// NewPlan cuts a domain into tiles. tilePlanes <= 0 or >= NI yields a single
// whole-domain tile with no halo (the degenerate resident case). fextK must
// be the feedback input's k-step extent, stencil.Extent.Scale(K) of the
// one-step analysis.
func NewPlan(domain grid.Size, steps, k, tilePlanes int, fextK stencil.Extent, bc stencil.Boundary) (*Plan, error) {
	if !domain.Valid() {
		return nil, fmt.Errorf("stream: invalid domain %v", domain)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("stream: steps must be positive, got %d", steps)
	}
	if k <= 0 {
		k = 1
	}
	if k > steps {
		k = steps
	}
	p := &Plan{
		Domain: domain, Steps: steps, K: k,
		Sweeps: (steps + k - 1) / k, Boundary: bc,
	}
	if tilePlanes <= 0 || tilePlanes >= domain.NI {
		p.TilePlanes = domain.NI
		p.Tiles = []Tile{{0, domain.NI}}
		return p, nil
	}
	p.TilePlanes = tilePlanes
	p.ExtLo, p.ExtHi = fextK.ILo, fextK.IHi
	if bc == stencil.Periodic && tilePlanes+p.ExtLo+p.ExtHi > domain.NI {
		return nil, fmt.Errorf(
			"stream: k-step halo (%d+%d planes) plus tile width %d exceeds the periodic domain NI=%d; reduce k or widen the tiles",
			p.ExtLo, p.ExtHi, tilePlanes, domain.NI)
	}
	for lo := 0; lo < domain.NI; lo += tilePlanes {
		p.Tiles = append(p.Tiles, Tile{lo, min(lo+tilePlanes, domain.NI)})
	}
	return p, nil
}

// KEffAt returns the steps advanced by sweep s (the final sweep carries the
// remainder when K does not divide Steps).
func (p *Plan) KEffAt(sweep int) int {
	return min(p.K, p.Steps-sweep*p.K)
}

// tileGeom returns tile t's loaded sub-domain: the first loaded global plane
// (possibly negative under a periodic wrap), the owned range's offset within
// the loaded planes, and the loaded plane count. Under Clamp the halo stops
// at the domain edge — the tile's edge then IS the domain edge and the
// engine's clamped boundary reads are globally exact; under Periodic the
// full halo is always loaded, wrapping mod NI.
func (p *Plan) tileGeom(t int) (base, extLo, extNI int) {
	tile := p.Tiles[t]
	if len(p.Tiles) == 1 {
		return 0, 0, p.Domain.NI
	}
	extLo, extHi := p.ExtLo, p.ExtHi
	if p.Boundary != stencil.Periodic {
		extLo = min(extLo, tile.Lo)
		extHi = min(extHi, p.Domain.NI-tile.Hi)
	}
	return tile.Lo - extLo, extLo, tile.Width() + extLo + extHi
}

// MaxResidentPlanes returns the largest loaded plane count over all tiles —
// what the memory budget must cover per psi-sized field.
func (p *Plan) MaxResidentPlanes() int {
	m := 0
	for t := range p.Tiles {
		_, _, ext := p.tileGeom(t)
		m = max(m, ext)
	}
	return m
}

// globalPlane maps a loaded-local plane index to its global plane for a tile
// whose first loaded plane is base (wrapping under Periodic).
func (p *Plan) globalPlane(base, li int) int {
	if p.Boundary == stencil.Periodic {
		return grid.WrapIndex(base+li, p.Domain.NI)
	}
	return base + li
}
