package exec

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Periodic wrap-image sweeps ("wrap bands") for the partitioned strategies.
//
// The stage trapezoids of Plus31D and IslandsOfCores are built by growing the
// output target by the stage's halo extent and clamping to the domain
// (HaloAnalysis.StageRegion). Under a Clamp boundary that is exact: every
// out-of-domain read resolves to an in-domain cell inside the clamped region.
// Under a Periodic boundary it is not, for two distinct reasons:
//
//  1. Coverage: an island touching a domain face reads intermediate stages at
//     wrapped positions near the OPPOSITE face — cells its private stage
//     buffers never compute, because clamping discarded the overhang instead
//     of wrapping it.
//  2. Ordering: even when the stage region spans the whole dimension (one
//     island, or the shared Plus31D environment), the block-major walk with
//     forward wavefront spans computes the top-of-dimension cells LAST, while
//     the first block's sweeps already read them through the backward wrap —
//     observing the previous step's values ("stale values near the seam",
//     the gap periodic_test.go used to pin).
//
// Both are fixed by the same construction: the wrap images of the grown
// (unclamped) trapezoid are computed as explicit extra sweeps, placed in the
// stage's own phase of a block chosen so every read they make — and every
// read made OF them — resolves to already-computed cells:
//
//   - Images of the backward i-overhang (cells at the top of the i axis) are
//     swept in the FIRST block's phase. They are kept even when the main
//     region already covers them: the early duplicate is what repairs the
//     block-major ordering, and the later main-span rewrite is bit-identical
//     (each stage cell is a pure function of final earlier-stage values), so
//     cross-phase recomputation is benign.
//   - Images of the forward i-overhang not covered by the main region (cells
//     at the bottom of the i axis) are swept in the phase of the block that
//     holds the stage's top plane. The top-of-dimension values they read
//     backward exist by then (earlier stages lead the wavefront), and their
//     readers, the next stage's top planes, come no earlier. That block is
//     not always the last one: when the last block is a single plane, the
//     wavefront lead has swept the stage's top plane one block before.
//   - Images of the j/k overhangs (core sub-islands at a j face, variant-B
//     parts) are swept per block, restricted to the block span's i range, so
//     the i-wavefront invariant orders their cross-block reads exactly like
//     the main spans'.
//
// Extent composition makes the band widths self-consistent: stage s-1's
// image is at least stage s's image grown by the read edge between them, the
// same invariant the clamped trapezoids rely on. Reads of STEP inputs from
// band cells are already safe: the swap+halo feedback geometry imports
// cyclic halo strips (dimSegments wraps them), and the other step inputs are
// shared whole-domain fields.
//
// When an image would wrap more than a full dimension (stage halo wider than
// the domain), the bands for that dimension are skipped and the reason is
// recorded — the loud-fallback rule the executor uses elsewhere; results
// then stay as they were before this fix.

// wrapBands holds the periodic wrap-image sweeps of one stage for one island
// (or core sub-island): boxes attached to the first block's phase, forward
// image boxes attached to the phase of block top, and per-block j/k-image
// boxes.
type wrapBands struct {
	first, fwd []grid.Region
	top        int
	perBlock   [][]grid.Region
}

func (w *wrapBands) empty() bool {
	if w == nil {
		return true
	}
	if len(w.first) > 0 || len(w.fwd) > 0 {
		return false
	}
	for _, boxes := range w.perBlock {
		if len(boxes) > 0 {
			return false
		}
	}
	return true
}

// dimWrap is the wrap decomposition of one dimension's grown interval
// [g0, g1) over a periodic axis of n cells: the clamped main interval, the
// whole backward image (kept even when covered — the ordering band), and the
// image pieces not covered by the main interval.
type dimWrap struct {
	main   [2]int
	lo     [2]int // whole image of the backward overhang (empty: lo[0]>=lo[1])
	loExt  [2]int // lo minus main — the uncovered piece
	hiExt  [2]int // forward-overhang image minus main
	reason string
}

func wrapDim(g0, g1, n int) dimWrap {
	d := dimWrap{main: [2]int{max(g0, 0), min(g1, n)}}
	if g0 < 0 {
		w := -g0
		if w > n {
			d.reason = fmt.Sprintf("stage halo %d wraps past the dimension (%d cells)", w, n)
			return d
		}
		d.lo = [2]int{n - w, n}
		// The uncovered piece sits above the main interval's top.
		if d.main[1] < n {
			d.loExt = [2]int{max(n-w, d.main[1]), n}
		}
	}
	if g1 > n {
		w := g1 - n
		if w > n {
			d.reason = fmt.Sprintf("stage halo %d wraps past the dimension (%d cells)", w, n)
			return d
		}
		// With a forward overhang the main interval reaches the top, so the
		// only possibly-uncovered piece is below its bottom.
		d.hiExt = [2]int{0, min(w, d.main[0])}
	}
	return d
}

// segs returns the dimension's disjoint coverage segments: the main interval
// plus the uncovered image pieces.
func (d *dimWrap) segs() [][2]int {
	out := [][2]int{d.main}
	if d.loExt[0] < d.loExt[1] {
		out = append(out, d.loExt)
	}
	if d.hiExt[0] < d.hiExt[1] {
		out = append(out, d.hiExt)
	}
	return out
}

// withJ / withK return r with one dimension's range replaced.
func withJ(r grid.Region, s [2]int) grid.Region { r.J0, r.J1 = s[0], s[1]; return r }
func withK(r grid.Region, s [2]int) grid.Region { r.K0, r.K1 = s[0], s[1]; return r }

// wrapBandsFor computes stage s's periodic wrap bands for one island or core
// sub-island: target is the output region of the inner step being compiled
// (targetAt of the part or sub-part), spans the per-block stage spans the
// main schedule sweeps. Returns nil when the boundary is not periodic or the
// stage needs no bands. Infeasible dimensions are skipped with the reason
// recorded on the plan (the loud fallback).
func (p *plan) wrapBandsFor(s int, target grid.Region, spans []grid.Region) *wrapBands {
	if p.cfg.Boundary != stencil.Periodic || target.Empty() || len(spans) == 0 {
		return nil
	}
	grown := p.analysis.StageExtents[s].Apply(target)
	di := wrapDim(grown.I0, grown.I1, p.domain.NI)
	dj := wrapDim(grown.J0, grown.J1, p.domain.NJ)
	dk := wrapDim(grown.K0, grown.K1, p.domain.NK)
	for _, d := range []*dimWrap{&di, &dj, &dk} {
		if d.reason != "" && p.wrapReason == "" {
			p.wrapReason = fmt.Sprintf("stage %q: %s", p.prog.Stages[s].Name, d.reason)
		}
	}
	w := &wrapBands{perBlock: make([][]grid.Region, len(spans))}
	jSegs, kSegs := dj.segs(), dk.segs()
	base := grid.Region{K0: dk.main[0], K1: dk.main[1]}

	// Backward i-image: every (j, k) coverage segment, minus the first
	// block's own span (same-phase dedup; the subtraction is empty in the
	// common case where block 0 sits at the bottom of the i axis). Subtract
	// requires inner ⊆ r, so the span is intersected with the box first — a
	// raw partially-overlapping span would yield pieces outside the box.
	if di.lo[0] < di.lo[1] {
		for _, js := range jSegs {
			for _, ks := range kSegs {
				box := withK(withJ(base, js), ks)
				box.I0, box.I1 = di.lo[0], di.lo[1]
				for _, piece := range stencil.Subtract(box, box.Intersect(spans[0])) {
					w.first = append(w.first, piece)
				}
			}
		}
	}
	// Uncovered forward i-image: attached to the block whose span holds the
	// stage's top plane, the phase that computes the top-of-dimension cells
	// the image reads backward, before the next stage reads the image.
	if di.hiExt[0] < di.hiExt[1] {
		w.top = len(spans) - 1
		for b, span := range spans {
			if !span.Empty() && (spans[w.top].Empty() || span.I1 > spans[w.top].I1) {
				w.top = b
			}
		}
		for _, js := range jSegs {
			for _, ks := range kSegs {
				box := withK(withJ(base, js), ks)
				box.I0, box.I1 = di.hiExt[0], di.hiExt[1]
				for _, piece := range stencil.Subtract(box, box.Intersect(spans[w.top])) {
					w.fwd = append(w.fwd, piece)
				}
			}
		}
	}
	// j/k-image boxes ride with each block's span i-range (minus the backward
	// i-image, which the first-block boxes already cover in full).
	for b, span := range spans {
		if span.Empty() {
			continue
		}
		i0, i1 := span.I0, span.I1
		if di.lo[0] < di.lo[1] && i1 > di.lo[0] {
			i1 = max(i0, di.lo[0])
		}
		if i0 >= i1 {
			continue
		}
		add := func(js, ks [2]int) {
			if js[0] >= js[1] || ks[0] >= ks[1] {
				return
			}
			box := withK(withJ(base, js), ks)
			box.I0, box.I1 = i0, i1
			w.perBlock[b] = append(w.perBlock[b], box)
		}
		for _, js := range [][2]int{dj.loExt, dj.hiExt} {
			for _, ks := range kSegs {
				add(js, ks)
			}
		}
		for _, ks := range [][2]int{dk.loExt, dk.hiExt} {
			add(dj.main, ks)
		}
	}
	if w.empty() {
		return nil
	}
	return w
}

// stageWrapBands computes the wrap bands of every stage for one sweeper at
// inner-step distance d. Returns nil when no stage needs bands (the common
// case: Clamp, single-stage programs whose stage extents are zero, or the
// unblocked Original strategy, whose one whole-domain span already covers
// every image and has no block order to repair).
func (p *plan) stageWrapBands(sw *sweeper, d int) []*wrapBands {
	if p.cfg.Boundary != stencil.Periodic {
		return nil
	}
	target := p.targetAt(d, sw.owned)
	var out []*wrapBands
	spans := make([]grid.Region, len(p.blocks[sw.island]))
	for s := range p.prog.Stages {
		for b := range spans {
			spans[b] = p.span(sw, d, s, b)
		}
		w := p.wrapBandsFor(s, target, spans)
		if w != nil && out == nil {
			out = make([]*wrapBands, len(p.prog.Stages))
		}
		if out != nil {
			out[s] = w
		}
	}
	return out
}
