package exec

import (
	"fmt"
	"sort"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file derives the halo-strip exchange geometry of the island
// strategies' swap+halo feedback mode: every island (or core-level
// sub-island) keeps a private double-buffered copy of the feedback field
// covering its part plus the step-wide halo extent, and after the global
// end-of-compute barrier it pulls only the neighbor-facing strips — O(halo
// surface) — from the owners' freshly computed buffers instead of publishing
// its whole part into a shared grid. The halo extent is the backward
// analysis' transitive per-step requirement (HaloAnalysis.InputExtents),
// the same trapezoid arithmetic that sizes the redundant compute spans, so
// the strips can never under-provision what the next step reads
// (TestHaloWidthMatchesComposedExtents pins this property).

// FeedbackMode selects how a compiled schedule publishes the step output
// into the feedback input between steps.
type FeedbackMode int

const (
	// FeedbackSwap publishes by swapping the shared environment's output
	// buffer with the feedback input — O(1), used by Original and Plus31D.
	FeedbackSwap FeedbackMode = iota
	// FeedbackCopy publishes island-private outputs by copying every
	// island's whole part into the shared feedback grid — O(part volume).
	// It is the fallback when the halo-strip exchange is infeasible
	// (parts narrower than the halo) or disabled.
	FeedbackCopy
	// FeedbackSwapHalo publishes by an O(1) per-island buffer swap plus
	// precompiled halo-strip copies sized by the stencil's halo surface.
	// The shared feedback grid stays stale until Runner.SyncFeedback.
	FeedbackSwapHalo
)

func (m FeedbackMode) String() string {
	switch m {
	case FeedbackSwap:
		return "swap"
	case FeedbackCopy:
		return "copy"
	case FeedbackSwapHalo:
		return "swap+halo"
	default:
		return fmt.Sprintf("FeedbackMode(%d)", int(m))
	}
}

// haloStrip is one precompiled halo pull: after every step, reg (a set of
// cells owned by environment owner) is copied from the owner's freshly
// computed buffer into the puller's private halo shell.
type haloStrip struct {
	owner int
	reg   grid.Region
}

// haloGeom is the complete halo-strip exchange geometry of one schedule:
// one entry per island-private environment, in the schedule's flattened
// environment order (per team, or per worker for core-level sub-islands).
type haloGeom struct {
	// owned[e] is environment e's output region (its part or sub-part);
	// empty entries are workers with no share of the domain.
	owned []grid.Region
	// boxes[e] are the disjoint in-domain boxes environment e's private
	// feedback field must cover: its part plus the boundary-condition
	// resolved step halo. Used to reload the private buffers from the
	// shared grid (Runner.ReloadFeedback).
	boxes [][]grid.Region
	// strips[e] are the halo pulls of environment e, each lying inside
	// exactly one other environment's owned region. Strips of one
	// environment are mutually disjoint and disjoint from owned[e], so
	// they race with nothing.
	strips [][]haloStrip
	// stripCount / stripBytes total the exchange per step.
	stripCount int
	stripBytes int64
}

// haloGeometry derives the swap+halo exchange geometry for a partition of
// the domain into owned output regions, under the per-step feedback extent
// ext and the boundary condition bc. It returns (nil, reason) when the
// geometry is infeasible and the schedule must fall back to whole-part
// publish copies — the loud fallback rule: any owned region that is
// narrower than the halo along a dimension it does not fully span would
// turn "neighbor-facing strips" into multi-neighbor sweeps, so the compiler
// refuses rather than degenerating silently.
func haloGeometry(owned []grid.Region, ext stencil.Extent, domain grid.Size, bc stencil.Boundary) (*haloGeom, string) {
	dims := [3]int{domain.NI, domain.NJ, domain.NK}
	lo := [3]int{ext.ILo, ext.JLo, ext.KLo}
	hi := [3]int{ext.IHi, ext.JHi, ext.KHi}
	names := [3]string{"i", "j", "k"}
	if bc == stencil.Periodic {
		// A periodic halo wider than the domain would wrap around more than
		// once, which dimSegments cannot represent. Under Clamp the shell
		// just saturates at the boundary, so any extent is representable.
		for d := 0; d < 3; d++ {
			if lo[d] > dims[d] || hi[d] > dims[d] {
				return nil, fmt.Sprintf("step halo %v exceeds the %s-extent of domain %v", ext, names[d], domain)
			}
		}
	}
	for _, r := range owned {
		if r.Empty() {
			continue
		}
		w := [3]int{r.I1 - r.I0, r.J1 - r.J0, r.K1 - r.K0}
		span := [3]bool{w[0] == dims[0], w[1] == dims[1], w[2] == dims[2]}
		for d := 0; d < 3; d++ {
			if need := max(lo[d], hi[d]); !span[d] && w[d] < need {
				return nil, fmt.Sprintf("part %v is only %d cells wide along %s, narrower than the %d-cell step halo",
					r, w[d], names[d], need)
			}
		}
	}

	g := &haloGeom{owned: owned,
		boxes:  make([][]grid.Region, len(owned)),
		strips: make([][]haloStrip, len(owned)),
	}
	for e, r := range owned {
		if r.Empty() {
			continue
		}
		need := ext.Apply(r)
		segs := [3][]ival{
			dimSegments(need.I0, need.I1, domain.NI, bc),
			dimSegments(need.J0, need.J1, domain.NJ, bc),
			dimSegments(need.K0, need.K1, domain.NK, bc),
		}
		for _, si := range segs[0] {
			for _, sj := range segs[1] {
				for _, sk := range segs[2] {
					box := grid.Box(si.lo, si.hi, sj.lo, sj.hi, sk.lo, sk.hi)
					g.boxes[e] = append(g.boxes[e], box)
					for o, part := range owned {
						if o == e || part.Empty() {
							continue
						}
						if s := box.Intersect(part); !s.Empty() {
							g.strips[e] = append(g.strips[e], haloStrip{owner: o, reg: s})
							g.stripCount++
							g.stripBytes += int64(s.Cells()) * grid.CellBytes
						}
					}
				}
			}
		}
	}
	return g, ""
}

// ival is a half-open index interval along one dimension.
type ival struct{ lo, hi int }

// dimSegments decomposes the in-domain coverage of the one-dimensional
// requirement [lo, hi) under the boundary condition: Clamp truncates to the
// domain (out-of-domain reads resolve to the boundary cell, which the
// truncated interval contains), Periodic adds the wrapped images of the
// protruding ends. The result is a sorted, disjoint, merged set of
// intervals — merging is what keeps the derived boxes disjoint when a
// wrapped image overlaps the main interval on small domains, so no halo
// cell is ever copied twice (a data race even when the values agree).
func dimSegments(lo, hi, n int, bc stencil.Boundary) []ival {
	main := ival{max(lo, 0), min(hi, n)}
	if bc == stencil.Clamp {
		return []ival{main}
	}
	segs := []ival{main}
	if lo < 0 {
		segs = append(segs, ival{n + lo, n})
	}
	if hi > n {
		segs = append(segs, ival{0, hi - n})
	}
	return mergeIvals(segs)
}

// mergeIvals sorts intervals and merges overlapping or adjacent ones.
func mergeIvals(segs []ival) []ival {
	sort.Slice(segs, func(a, b int) bool { return segs[a].lo < segs[b].lo })
	out := segs[:1]
	for _, s := range segs[1:] {
		if last := &out[len(out)-1]; s.lo <= last.hi {
			if s.hi > last.hi {
				last.hi = s.hi
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}
