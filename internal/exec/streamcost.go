package exec

import (
	"fmt"
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file prices out-of-core tile streaming (internal/stream) on the
// machine model: for a residency choice — tile width (owned i-planes per
// tile) times temporal-blocking factor k — it combines the modeled compute
// time of one tile engine with disk-bandwidth arithmetic for the load/
// writeback traffic, so the tuner can pick the residency that minimizes
// wall time under a memory budget. exec cannot import internal/stream (the
// dependency points the other way), so the tile geometry arithmetic is
// mirrored here and pinned against stream's planner by the tune tests.

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

// StreamCostResult is the modeled cost of one streamed run.
type StreamCostResult struct {
	Choice StreamChoice
	Domain grid.Size
	Steps  int
	// Tiles and Sweeps are the plan shape: ceil(NI/TilePlanes) tiles
	// visited ceil(Steps/K) times.
	Tiles  int
	Sweeps int
	// ExtLo/ExtHi are the k-step halo planes below/above an interior tile.
	ExtLo, ExtHi int
	// MaxResidentPlanes is the widest loaded tile (owned + halo planes).
	MaxResidentPlanes int
	// ResidentBytes estimates the peak in-memory footprint of the tile
	// engine plus the pipeline's double buffers (see StreamResidentBytes).
	ResidentBytes float64
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

// streamTile is one tile's engine geometry: it loads ext planes, of which
// [lo, lo+width) are the owned ones it writes back.
type streamTile struct{ lo, width, ext int }

// streamTiles mirrors stream.NewPlan's cut: tiles of tilePlanes owned
// planes, each loaded with a k-step halo that clamps at the domain edges
// unless the i-boundary is periodic (where the full halo wraps mod NI).
func streamTiles(domain grid.Size, tilePlanes, extLo, extHi int, periodic bool) []streamTile {
	if tilePlanes <= 0 || tilePlanes >= domain.NI {
		return []streamTile{{0, domain.NI, domain.NI}}
	}
	var tiles []streamTile
	for lo := 0; lo < domain.NI; lo += tilePlanes {
		hi := min(lo+tilePlanes, domain.NI)
		lo2, hi2 := extLo, extHi
		if !periodic {
			lo2 = min(lo2, lo)
			hi2 = min(hi2, domain.NI-hi)
		}
		tiles = append(tiles, streamTile{lo2, hi - lo, hi - lo + lo2 + hi2})
	}
	return tiles
}

// maxLoaded returns the widest tile's loaded plane count.
func maxLoaded(tiles []streamTile) int {
	m := 0
	for _, t := range tiles {
		m = max(m, t.ext)
	}
	return m
}

// StreamTileConfig returns the engine configuration and sub-domain of one
// streamed tile: it loads extNI planes of the domain, advances them steps
// steps in one Run, and only the owned planes [extLo, extLo+width) are read
// back — Config.Keep, so the engine sweeps their time-skewed trapezoid
// instead of the loaded rectangle. The streaming executor builds its tile
// engines from it and StreamCost prices the same plans, so the picker's
// ranking follows what the engine computes.
func StreamTileConfig(cfg Config, steps int, domain grid.Size, extLo, width, extNI int) (Config, grid.Size) {
	cfg.Steps = steps
	// Let the runner temporal-block the residency internally when the
	// strategy supports it; infeasible geometries fall back to k=1 inside
	// the runner (bit-identical either way).
	cfg.KSteps = 0
	if cfg.Strategy == IslandsOfCores {
		cfg.KSteps = steps
	}
	cfg.Keep = grid.Box(extLo, extLo+width, 0, domain.NJ, 0, domain.NK)
	return cfg, grid.Sz(extNI, domain.NJ, domain.NK)
}

// streamEnvCount is the number of stage environments the tile engine
// allocates: one shared set for the single-island strategies, one per
// island for islands-of-cores, one per core with core-level sub-islands.
func streamEnvCount(cfg Config) int {
	if cfg.Strategy != IslandsOfCores {
		return 1
	}
	if cfg.CoreIslands {
		return cfg.Machine.TotalCores()
	}
	return cfg.Machine.NumNodes()
}

// StreamEngineFields counts the tile-sized fields a tile engine holds: the
// step inputs, each environment's stage arrays, and the per-environment
// feedback clone. The streaming executor sizes the one arena its tile engines
// share from it, so a run holds the engine memory StreamResidentBytes prices.
func StreamEngineFields(cfg Config, prog *stencil.Program) int {
	envs := streamEnvCount(cfg)
	return len(prog.StepInputs) + envs*len(prog.Stages) + envs
}

// StreamResidentBytes estimates the peak in-memory footprint of a streamed
// run at the given residency: every engine-held field sized to the widest
// loaded tile, plus the pipeline's four transfer buffers (two load, two
// writeback). fext is the streamed field's one-step halo (StreamHalo). It is
// arithmetic only — cheap enough to binary-search the widest tile fitting a
// budget before pricing it.
func StreamResidentBytes(cfg Config, prog *stencil.Program, fext stencil.Extent, domain grid.Size, tilePlanes, k int) float64 {
	e := fext.Scale(max(1, k))
	tiles := streamTiles(domain, tilePlanes, e.ILo, e.IHi, cfg.Boundary == stencil.Periodic)
	planeBytes := float64(domain.NJ) * float64(domain.NK) * grid.CellBytes
	loaded := float64(maxLoaded(tiles))
	resident := float64(StreamEngineFields(cfg, prog)) * loaded * planeBytes
	if len(tiles) > 1 {
		resident += 4 * loaded * planeBytes
	}
	return resident
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

// StreamCost prices one residency choice. cfg carries the per-tile executor
// configuration (strategy, boundary, machine); the streamed field is the
// program's declared feedback input and an the program's analysis. steps is
// the whole run's step count. The remainder sweep (when K does not divide
// Steps) is priced at full K, an upper bound that ranks identically.
func StreamCost(cfg Config, prog *stencil.Program, an *stencil.HaloAnalysis, domain grid.Size, steps int, choice StreamChoice, diskBW float64) (*StreamCostResult, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("exec: stream cost: steps must be positive, got %d", steps)
	}
	if diskBW <= 0 {
		diskBW = DefaultDiskBWBytes
	}
	k := min(max(1, choice.K), steps)
	fext, err := StreamHalo(prog, an)
	if err != nil {
		return nil, err
	}
	fextK := fext.Scale(k)
	extLo, extHi := fextK.ILo, fextK.IHi
	periodic := cfg.Boundary == stencil.Periodic
	tp := choice.TilePlanes
	if tp <= 0 || tp >= domain.NI {
		tp = domain.NI
		extLo, extHi = 0, 0
	} else if periodic && tp+extLo+extHi > domain.NI {
		return nil, fmt.Errorf(
			"exec: stream cost: k-step halo (%d+%d planes) plus tile width %d exceeds the periodic domain NI=%d",
			extLo, extHi, tp, domain.NI)
	}
	tiles := streamTiles(domain, tp, extLo, extHi, periodic)
	sweeps := (steps + k - 1) / k

	// Compute: simulate the widest tile engine advancing k steps, then scale
	// by the stage cells the sweep's tiles compute — each distinct tile shape
	// planned once, exactly as its engine will be.
	var loadedPlanes int
	var sweepCells, widestCells int64
	var widest *plan
	shapeCells := make(map[streamTile]int64)
	for _, t := range tiles {
		loadedPlanes += t.ext
		if _, ok := shapeCells[t]; !ok {
			tileCfg, size := StreamTileConfig(cfg, k, domain, t.lo, t.width, t.ext)
			p, err := newPlanWith(tileCfg, prog, an, size)
			if err != nil {
				return nil, fmt.Errorf("exec: stream cost: tile plan: %w", err)
			}
			shapeCells[t], _ = p.runCells()
			if widest == nil || t.ext > widest.domain.NI {
				widest, widestCells = p, shapeCells[t]
			}
		}
		sweepCells += shapeCells[t]
	}
	mres, err := modelPlan(widest, false)
	if err != nil {
		return nil, fmt.Errorf("exec: stream cost: tile model: %w", err)
	}
	computeSweep := mres.TotalTime * float64(sweepCells) / float64(widestCells)

	planeBytes := float64(domain.NJ) * float64(domain.NK) * grid.CellBytes
	readSweep := float64(loadedPlanes) * planeBytes
	writeSweep := float64(domain.NI) * planeBytes
	ioSweep := (readSweep + writeSweep) / diskBW
	// The pipeline overlaps load/writeback with compute but must fill with
	// the first tile's load and drain with the last tile's writeback.
	bubble := (float64(widest.domain.NI) + float64(tp)) * planeBytes / diskBW
	sweepSec := math.Max(computeSweep, ioSweep) + bubble

	res := &StreamCostResult{
		Choice:            StreamChoice{TilePlanes: tp, K: k},
		Domain:            domain,
		Steps:             steps,
		Tiles:             len(tiles),
		Sweeps:            sweeps,
		ExtLo:             extLo,
		ExtHi:             extHi,
		MaxResidentPlanes: widest.domain.NI,
		ResidentBytes:     StreamResidentBytes(cfg, prog, fext, domain, tp, k),
		StageCells:        float64(sweeps) * float64(sweepCells),
		BytesMoved:        float64(sweeps) * (readSweep + writeSweep),
		IOSec:             float64(sweeps) * ioSweep,
		ComputeSec:        float64(sweeps) * computeSweep,
		SweepSec:          sweepSec,
		TotalSec:          float64(sweeps) * sweepSec,
	}
	if sweepSec > 0 {
		res.OverlapBound = computeSweep / sweepSec
	}
	return res, nil
}
