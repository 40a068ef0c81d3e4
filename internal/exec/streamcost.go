package exec

import (
	"fmt"
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file is the one home of a streamed run's tile geometry (StreamPlan)
// and its price on the machine model: for a residency choice — tile width
// (owned i-planes per tile) times temporal-blocking factor k — StreamCost
// combines the modeled compute time of the plan's tile engines with
// disk-bandwidth arithmetic for its load/writeback traffic, so the tuner can
// pick the residency that minimizes wall time under a memory budget, and the
// streaming executor (internal/stream) runs the very plan that was priced.

// DefaultDiskBWBytes is the sustained sequential disk bandwidth assumed
// when the caller has no measurement yet (a mid-range NVMe device; the
// serving layer refines it with a live EWMA of observed stream throughput).
const DefaultDiskBWBytes = 2.0e9

// StreamChoice is one residency candidate: TilePlanes owned i-planes per
// tile, advanced K steps per residency.
type StreamChoice struct {
	TilePlanes int
	K          int
}

// StreamShape is a tile's engine geometry: it loads ExtNI planes, of which
// [ExtLo, ExtLo+Width) are the owned ones it writes back. Tiles of one shape
// advanced the same steps run on one compiled engine.
type StreamShape struct {
	ExtLo, Width, ExtNI int
}

// StreamTile is one resident unit of work: it owns the global planes
// [Lo, Lo+Width) and loads its shape's ExtNI planes from global plane Base().
type StreamTile struct {
	Lo int
	StreamShape
}

// Base returns the tile's first loaded global plane (negative under a
// periodic wrap).
func (t StreamTile) Base() int { return t.Lo - t.ExtLo }

// StreamPlan is the tile geometry of one streamed run: the domain cut into
// tiles of at most TilePlanes owned i-planes, each widened by the k-step
// feedback halo, advanced K steps per residency over Sweeps passes.
type StreamPlan struct {
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
	Tiles        []StreamTile
	Boundary     stencil.Boundary
}

// NewStreamPlan cuts a domain into tiles. fext is the feedback input's
// one-step extent (StreamHalo); choice.K is clamped into [1, steps], and
// choice.TilePlanes <= 0 or >= NI yields a single whole-domain tile with no
// halo (the degenerate resident case). Under Clamp a tile's halo stops at the
// domain edge — the tile's edge then IS the domain edge and the engine's
// clamped boundary reads are globally exact; under Periodic the full halo is
// always loaded, wrapping mod NI, so it must fit beside the tile in the ring.
func NewStreamPlan(domain grid.Size, steps int, choice StreamChoice, fext stencil.Extent, bc stencil.Boundary) (*StreamPlan, error) {
	if !domain.Valid() {
		return nil, fmt.Errorf("exec: stream plan: invalid domain %v", domain)
	}
	if steps <= 0 {
		return nil, fmt.Errorf("exec: stream plan: steps must be positive, got %d", steps)
	}
	k := min(max(1, choice.K), steps)
	p := &StreamPlan{
		Domain: domain, Steps: steps, K: k,
		Sweeps: (steps + k - 1) / k, TilePlanes: choice.TilePlanes, Boundary: bc,
	}
	ni := domain.NI
	if p.TilePlanes <= 0 || p.TilePlanes >= ni {
		p.TilePlanes = ni
		p.Tiles = []StreamTile{{0, StreamShape{0, ni, ni}}}
		return p, nil
	}
	e := fext.Scale(k)
	p.ExtLo, p.ExtHi = e.ILo, e.IHi
	periodic := bc == stencil.Periodic
	if periodic && p.TilePlanes+p.ExtLo+p.ExtHi > ni {
		return nil, fmt.Errorf(
			"exec: stream plan: k-step halo (%d+%d planes) plus tile width %d exceeds the periodic domain NI=%d; reduce k or widen the tiles",
			p.ExtLo, p.ExtHi, p.TilePlanes, ni)
	}
	for lo := 0; lo < ni; lo += p.TilePlanes {
		hi := min(lo+p.TilePlanes, ni)
		extLo, extHi := p.ExtLo, p.ExtHi
		if !periodic {
			extLo, extHi = min(extLo, lo), min(extHi, ni-hi)
		}
		p.Tiles = append(p.Tiles, StreamTile{lo, StreamShape{extLo, hi - lo, hi - lo + extLo + extHi}})
	}
	return p, nil
}

// KEffAt returns the steps advanced by sweep s (the final sweep carries the
// remainder when K does not divide Steps).
func (p *StreamPlan) KEffAt(sweep int) int {
	return min(p.K, p.Steps-sweep*p.K)
}

// StepsBefore returns the steps the sweeps before the given one advance.
func (p *StreamPlan) StepsBefore(sweep int) int {
	return min(sweep*p.K, p.Steps)
}

// MaxResidentPlanes returns the largest loaded plane count over all tiles —
// what the memory budget must cover per psi-sized field.
func (p *StreamPlan) MaxResidentPlanes() int {
	m := 0
	for _, t := range p.Tiles {
		m = max(m, t.ExtNI)
	}
	return m
}

// GlobalPlane maps tile t's loaded-local plane index li to its global plane
// (wrapping under Periodic).
func (p *StreamPlan) GlobalPlane(t StreamTile, li int) int {
	if p.Boundary == stencil.Periodic {
		return grid.WrapIndex(t.Base()+li, p.Domain.NI)
	}
	return t.Base() + li
}

// ResidentBytes estimates the peak in-memory footprint of the run when its
// tile engines run under cfg: every engine-held field sized to the widest
// loaded tile, plus the pipeline's four transfer buffers (two load, two
// writeback). cfg must carry the machine the engines run on — the
// environment count follows its cores — not the one the time model prices.
// It is arithmetic only, cheap enough to binary-search the widest tile
// fitting a budget before pricing it.
func (p *StreamPlan) ResidentBytes(cfg Config, prog *stencil.Program) float64 {
	planeBytes := float64(grid.PlaneBytes(p.Domain))
	loaded := float64(p.MaxResidentPlanes())
	resident := float64(EngineFields(cfg, prog).Total()) * loaded * planeBytes
	if len(p.Tiles) > 1 {
		resident += 4 * loaded * planeBytes
	}
	return resident
}

// StreamCostResult is the modeled cost of one streamed run.
type StreamCostResult struct {
	// Plan is the priced tile geometry, the one the streamer runs.
	Plan *StreamPlan
	// StageCells is the stage cells the run's tile engines compute: every
	// stage over every tile's owned-window trapezoid, every sweep.
	StageCells float64
	// BytesMoved is the disk traffic of the whole run: per sweep, every
	// tile's loaded planes are read and its owned planes written back.
	BytesMoved float64
	// IOSec and ComputeSec are whole-run totals of the two overlapped
	// activities; SweepSec is one pipelined sweep (max of the two flows
	// plus the fill/drain bubble) and TotalSec = Sweeps * SweepSec.
	IOSec      float64
	ComputeSec float64
	SweepSec   float64
	TotalSec   float64
	// OverlapBound is the model's upper bound on the pipeline's overlap
	// efficiency (compute time over sweep wall time): 1 means compute-
	// bound streaming at in-memory speed, small values mean the disk is
	// the bottleneck and a larger k (fewer sweeps) should pay off.
	OverlapBound float64
}

// StreamTileConfig returns the engine configuration and sub-domain of one
// streamed tile shape: it loads sh.ExtNI planes of the domain, advances them
// steps steps in one Run, and only the owned planes are read back —
// Config.Keep, so the engine sweeps their time-skewed trapezoid instead of
// the loaded rectangle. The streaming executor builds its tile engines from
// it and StreamCost prices the same plans, so the picker's ranking follows
// what the engine computes.
func StreamTileConfig(cfg Config, steps int, domain grid.Size, sh StreamShape) (Config, grid.Size) {
	cfg.Steps = steps
	// Let the runner temporal-block the residency internally when the
	// strategy supports it; infeasible geometries fall back to k=1 inside
	// the runner (bit-identical either way).
	cfg.KSteps = 0
	if cfg.Strategy == IslandsOfCores {
		cfg.KSteps = steps
	}
	cfg.Keep = grid.Box(sh.ExtLo, sh.ExtLo+sh.Width, 0, domain.NJ, 0, domain.NK)
	return cfg, grid.Sz(sh.ExtNI, domain.NJ, domain.NK)
}

// StreamHalo returns the one-step halo of the program's feedback input (the
// streamed field) from its analysis.
func StreamHalo(prog *stencil.Program, an *stencil.HaloAnalysis) (stencil.Extent, error) {
	fext, ok := an.InputExtents[prog.Feedback]
	if !ok {
		return stencil.Extent{}, fmt.Errorf("exec: stream cost: feedback input %q not in program", prog.Feedback)
	}
	return fext, nil
}

// StreamCost prices a streamed run's plan. cfg carries the per-tile executor
// configuration (strategy, boundary, machine) the model prices on; the
// streamed field is the program's declared feedback input and an the
// program's analysis. The remainder sweep (when K does not divide Steps) is
// priced at full K, an upper bound that ranks identically.
func StreamCost(cfg Config, prog *stencil.Program, an *stencil.HaloAnalysis, sp *StreamPlan, diskBW float64) (*StreamCostResult, error) {
	if diskBW <= 0 {
		diskBW = DefaultDiskBWBytes
	}
	// Compute: simulate the widest tile engine advancing k steps, then scale
	// by the stage cells the sweep's tiles compute — each distinct tile shape
	// planned once, exactly as its engine will be.
	var loadedPlanes int
	var sweepCells, widestCells int64
	var widest *plan
	shapeCells := make(map[StreamShape]int64)
	for _, t := range sp.Tiles {
		loadedPlanes += t.ExtNI
		if _, ok := shapeCells[t.StreamShape]; !ok {
			tileCfg, size := StreamTileConfig(cfg, sp.K, sp.Domain, t.StreamShape)
			p, err := newPlanWith(tileCfg, prog, an, size)
			if err != nil {
				return nil, fmt.Errorf("exec: stream cost: tile plan: %w", err)
			}
			shapeCells[t.StreamShape], _ = p.runCells()
			if widest == nil || t.ExtNI > widest.domain.NI {
				widest, widestCells = p, shapeCells[t.StreamShape]
			}
		}
		sweepCells += shapeCells[t.StreamShape]
	}
	mres, err := modelPlan(widest, false)
	if err != nil {
		return nil, fmt.Errorf("exec: stream cost: tile model: %w", err)
	}
	computeSweep := mres.TotalTime * float64(sweepCells) / float64(widestCells)

	planeBytes := float64(grid.PlaneBytes(sp.Domain))
	readSweep := float64(loadedPlanes) * planeBytes
	writeSweep := float64(sp.Domain.NI) * planeBytes
	ioSweep := (readSweep + writeSweep) / diskBW
	// The pipeline overlaps load/writeback with compute but must fill with
	// the first tile's load and drain with the last tile's writeback.
	bubble := (float64(widest.domain.NI) + float64(sp.TilePlanes)) * planeBytes / diskBW
	sweepSec := math.Max(computeSweep, ioSweep) + bubble

	sweeps := float64(sp.Sweeps)
	res := &StreamCostResult{
		Plan:       sp,
		StageCells: sweeps * float64(sweepCells),
		BytesMoved: sweeps * (readSweep + writeSweep),
		IOSec:      sweeps * ioSweep,
		ComputeSec: sweeps * computeSweep,
		SweepSec:   sweepSec,
		TotalSec:   sweeps * sweepSec,
	}
	if sweepSec > 0 {
		res.OverlapBound = computeSweep / sweepSec
	}
	return res, nil
}
