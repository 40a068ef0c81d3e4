package exec

import (
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

func streamTestSetup(t *testing.T) (Config, *stencil.Program, *stencil.HaloAnalysis) {
	t.Helper()
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mpdata.NewProgramWithOptions(mpdata.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	an, err := stencil.Analyze(&prog.Program)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 1}, &prog.Program, an
}

func TestStreamCostArithmetic(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(96, 16, 16)

	res, err := StreamCost(cfg, prog, an, domain, 10, StreamChoice{TilePlanes: 16, K: 2}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 6 || res.Sweeps != 5 {
		t.Fatalf("plan shape: tiles %d sweeps %d, want 6 and 5", res.Tiles, res.Sweeps)
	}
	if res.ExtLo != 6 || res.ExtHi != 6 {
		t.Fatalf("k=2 halo: [%d,%d], want [6,6]", res.ExtLo, res.ExtHi)
	}
	if res.MaxResidentPlanes != 16+12 {
		t.Fatalf("MaxResidentPlanes %d, want 28", res.MaxResidentPlanes)
	}
	if res.BytesMoved <= 0 || res.ResidentBytes <= 0 {
		t.Fatalf("missing accounting: %+v", res)
	}
	if res.OverlapBound <= 0 || res.OverlapBound > 1 {
		t.Fatalf("OverlapBound %v out of (0,1]", res.OverlapBound)
	}
	if res.TotalSec < res.ComputeSec || res.TotalSec < res.IOSec {
		t.Fatalf("total %v below a component (compute %v, io %v)", res.TotalSec, res.ComputeSec, res.IOSec)
	}

	// A degenerate whole-domain choice has one tile and no halo.
	res, err = StreamCost(cfg, prog, an, domain, 10, StreamChoice{TilePlanes: 0, K: 2}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tiles != 1 || res.ExtLo != 0 || res.ExtHi != 0 || res.MaxResidentPlanes != domain.NI {
		t.Fatalf("degenerate plan: %+v", res)
	}
}

func TestStreamCostPeriodicInfeasible(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	cfg.Boundary = stencil.Periodic
	// k=4 halo is 12+12 planes; a 10-plane tile cannot fit beside it in a
	// 24-plane periodic ring.
	if _, err := StreamCost(cfg, prog, an, grid.Sz(24, 8, 8), 8, StreamChoice{TilePlanes: 10, K: 4}, 1e9); err == nil {
		t.Fatal("periodic halo overflow accepted")
	}
}

func TestStreamResidentBytesMonotone(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(128, 16, 16)
	prev := 0.0
	for _, w := range []int{4, 8, 16, 32, 64} {
		b := StreamResidentBytes(cfg, prog, an.InputExtents[prog.Feedback], domain, w, 2)
		if b <= prev {
			t.Fatalf("resident bytes not increasing at width %d: %v <= %v", w, b, prev)
		}
		prev = b
	}
}

func TestStreamCostDiskBound(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(96, 16, 16)
	choice := StreamChoice{TilePlanes: 24, K: 1}

	slow, err := StreamCost(cfg, prog, an, domain, 8, choice, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := StreamCost(cfg, prog, an, domain, 8, choice, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if slow.TotalSec <= fast.TotalSec {
		t.Fatalf("slower disk not slower: %v <= %v", slow.TotalSec, fast.TotalSec)
	}
	if slow.OverlapBound >= fast.OverlapBound {
		t.Fatalf("slower disk should bound overlap lower: %v >= %v", slow.OverlapBound, fast.OverlapBound)
	}
	// On a crawling disk, doubling k (half the sweeps) must cut the total.
	k2, err := StreamCost(cfg, prog, an, domain, 8, StreamChoice{TilePlanes: 24, K: 2}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if k2.TotalSec >= slow.TotalSec {
		t.Fatalf("k=2 not faster on a disk-bound stream: %v >= %v", k2.TotalSec, slow.TotalSec)
	}
}

// scheduleKernelCells walks a runner's compiled kernel items through the
// recording stubs of recordingProgram and returns the stage cells one Run
// sweeps: an item's region once per stage its kernel computes (a fused
// group's kernel computes every member).
func scheduleKernelCells(r *Runner, log *[]string) int64 {
	walk := func(prog [][][]schedItem) int64 {
		var cells int64
		for _, team := range prog {
			for _, items := range team {
				for i := range items {
					it := &items[i]
					if it.kind != kernelItem {
						continue
					}
					*log = (*log)[:0]
					it.kern(it.env, it.reg)
					// A group without a registered fused kernel runs its
					// members' own kernels back to back: one entry each.
					stages := 0
					for _, tag := range *log {
						stages++
						if strings.HasPrefix(tag, "fused(") {
							stages += strings.Count(tag[:strings.Index(tag, ")")], ",")
						}
					}
					cells += int64(stages) * int64(it.reg.Cells())
				}
			}
		}
		return cells
	}
	return int64(r.plan.cfg.Steps/r.schedule.ksteps) * walk(r.schedule.items)
}

// TestStreamCostCellsMatchCompiledSchedule pins the cost model to the
// executor: for the first, an interior and the last tile of a stream at k in
// {1,2,4}, the stage cells StreamCost prices for the tile are exactly the
// cells the tile engine's compiled kernel items sweep — window honoured or
// fallen back (the narrow last tile cannot carry k=4 on its own planes). The
// picker's ranking and the engine cannot drift apart without failing here.
func TestStreamCostCellsMatchCompiledSchedule(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(100, 12, 6)
	const tilePlanes = 26
	fext := an.InputExtents[prog.Feedback]
	for _, k := range []int{1, 2, 4} {
		e := fext.Scale(k)
		tiles := streamTiles(domain, tilePlanes, e.ILo, e.IHi, false)
		if len(tiles) != 4 {
			t.Fatalf("k=%d: %d tiles, want 4", k, len(tiles))
		}
		var sweepCells int64
		fallbacks := 0
		for ti, tile := range tiles {
			tileCfg, size := StreamTileConfig(cfg, k, domain, tile.lo, tile.width, tile.ext)
			p, err := newPlanWith(tileCfg, prog, an, size)
			if err != nil {
				t.Fatal(err)
			}
			priced, _ := p.runCells()
			sweepCells += priced

			var log []string
			state := mpdata.NewState(size)
			r, err := NewRunner(tileCfg, recordingProgram(&log), state.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			compiled := scheduleKernelCells(r, &log)
			st := r.Schedule().Stats()
			r.Close()
			if priced != compiled {
				t.Errorf("k=%d tile %d %+v: model prices %d stage cells, the compiled schedule sweeps %d (%s)",
					k, ti, tile, priced, compiled, st)
			}
			if st.WindowFallbackReason != "" {
				fallbacks++
			}
			// The window is the point: an honoured one sweeps fewer cells
			// than the same engine partitioning everything it loaded.
			tileCfg.Keep = grid.Region{}
			whole, err := newPlanWith(tileCfg, prog, an, size)
			if err != nil {
				t.Fatal(err)
			}
			loaded, _ := whole.runCells()
			if st.WindowFallbackReason == "" && compiled >= loaded {
				t.Errorf("k=%d tile %d: windowed schedule sweeps %d cells, no fewer than the whole loaded extent's %d", k, ti, compiled, loaded)
			}
		}
		if want := map[int]int{1: 0, 2: 0, 4: 1}[k]; fallbacks != want {
			t.Errorf("k=%d: %d tiles fell back to the whole extent, want %d", k, fallbacks, want)
		}
		cost, err := StreamCost(cfg, prog, an, domain, k, StreamChoice{TilePlanes: tilePlanes, K: k}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cost.StageCells != float64(sweepCells) {
			t.Errorf("k=%d: StreamCost.StageCells = %v, want the tiles' %d", k, cost.StageCells, sweepCells)
		}
	}
}
