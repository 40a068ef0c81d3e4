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

// streamCost plans choice over domain and steps under cfg's boundary and
// prices the plan.
func streamCost(cfg Config, prog *stencil.Program, an *stencil.HaloAnalysis, domain grid.Size, steps int, choice StreamChoice, diskBW float64) (*StreamCostResult, error) {
	sp, err := NewStreamPlan(domain, steps, choice, an.InputExtents[prog.Feedback], cfg.Boundary)
	if err != nil {
		return nil, err
	}
	return StreamCost(cfg, prog, an, sp, diskBW)
}

// TestStreamPlanValidation covers the planner's feasibility errors, its
// clamped and wrapped halos and its sweep arithmetic.
func TestStreamPlanValidation(t *testing.T) {
	ext := stencil.Extent{ILo: 3, IHi: 3}
	if _, err := NewStreamPlan(grid.Sz(8, 4, 4), 4, StreamChoice{TilePlanes: 4, K: 1}, ext, stencil.Periodic); err == nil {
		t.Fatal("periodic halo overflow accepted")
	}
	if _, err := NewStreamPlan(grid.Sz(8, 4, 4), 0, StreamChoice{TilePlanes: 4, K: 1}, ext, stencil.Clamp); err == nil {
		t.Fatal("zero steps accepted")
	}
	p, err := NewStreamPlan(grid.Sz(8, 4, 4), 4, StreamChoice{TilePlanes: 4, K: 1}, ext, stencil.Clamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 2 || p.MaxResidentPlanes() != 7 {
		t.Fatalf("unexpected clamp plan: %+v (maxResident %d)", p, p.MaxResidentPlanes())
	}
	if first := p.Tiles[0]; first.Base() != 0 || first.ExtLo != 0 || first.ExtNI != 7 {
		t.Fatalf("clamped first tile %+v: its halo should stop at the domain edge", first)
	}
	// Under Periodic the first tile's halo wraps to the top of the ring.
	p, err = NewStreamPlan(grid.Sz(12, 4, 4), 4, StreamChoice{TilePlanes: 4, K: 1}, ext, stencil.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	if first := p.Tiles[0]; first.Base() != -3 || first.ExtNI != 10 || p.GlobalPlane(first, 0) != 9 || p.GlobalPlane(first, 3) != 0 {
		t.Fatalf("periodic first tile %+v: want base -3 over 10 planes, wrapping 0 -> 9", first)
	}
	// Whole-domain degenerate tile has no halo.
	p, err = NewStreamPlan(grid.Sz(8, 4, 4), 4, StreamChoice{TilePlanes: 0, K: 2}, ext, stencil.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 1 || p.ExtLo != 0 || p.ExtHi != 0 || p.MaxResidentPlanes() != 8 || p.TilePlanes != 8 {
		t.Fatalf("unexpected whole-domain plan: %+v", p)
	}
	if p.Sweeps != 2 || p.KEffAt(1) != 2 {
		t.Fatalf("sweep arithmetic wrong: %+v", p)
	}
	// Remainder sweep, and k clamped to the run.
	p, err = NewStreamPlan(grid.Sz(8, 4, 4), 7, StreamChoice{TilePlanes: 0, K: 4}, ext, stencil.Clamp)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sweeps != 2 || p.KEffAt(0) != 4 || p.KEffAt(1) != 3 || p.StepsBefore(1) != 4 || p.StepsBefore(2) != 7 {
		t.Fatalf("remainder sweep arithmetic wrong: %+v", p)
	}
	if p, err = NewStreamPlan(grid.Sz(8, 4, 4), 3, StreamChoice{TilePlanes: 4, K: 8}, ext, stencil.Clamp); err != nil || p.K != 3 || p.Sweeps != 1 {
		t.Fatalf("k=8 over 3 steps: %+v, %v; want k clamped to 3", p, err)
	}
}

func TestStreamCostArithmetic(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(96, 16, 16)

	res, err := streamCost(cfg, prog, an, domain, 10, StreamChoice{TilePlanes: 16, K: 2}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Plan; len(sp.Tiles) != 6 || sp.Sweeps != 5 {
		t.Fatalf("plan shape: tiles %d sweeps %d, want 6 and 5", len(sp.Tiles), sp.Sweeps)
	}
	if sp := res.Plan; sp.ExtLo != 6 || sp.ExtHi != 6 {
		t.Fatalf("k=2 halo: [%d,%d], want [6,6]", sp.ExtLo, sp.ExtHi)
	}
	if got := res.Plan.MaxResidentPlanes(); got != 16+12 {
		t.Fatalf("MaxResidentPlanes %d, want 28", got)
	}
	if res.BytesMoved <= 0 || res.Plan.ResidentBytes(cfg, prog) <= 0 {
		t.Fatalf("missing accounting: %+v", res)
	}
	if res.OverlapBound <= 0 || res.OverlapBound > 1 {
		t.Fatalf("OverlapBound %v out of (0,1]", res.OverlapBound)
	}
	if res.TotalSec < res.ComputeSec || res.TotalSec < res.IOSec {
		t.Fatalf("total %v below a component (compute %v, io %v)", res.TotalSec, res.ComputeSec, res.IOSec)
	}

	// A degenerate whole-domain choice has one tile and no halo.
	res, err = streamCost(cfg, prog, an, domain, 10, StreamChoice{TilePlanes: 0, K: 2}, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if sp := res.Plan; len(sp.Tiles) != 1 || sp.ExtLo != 0 || sp.ExtHi != 0 || sp.MaxResidentPlanes() != domain.NI {
		t.Fatalf("degenerate plan: %+v", sp)
	}
}

func TestStreamCostPeriodicInfeasible(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	cfg.Boundary = stencil.Periodic
	// k=4 halo is 12+12 planes; a 10-plane tile cannot fit beside it in a
	// 24-plane periodic ring.
	if _, err := streamCost(cfg, prog, an, grid.Sz(24, 8, 8), 8, StreamChoice{TilePlanes: 10, K: 4}, 1e9); err == nil {
		t.Fatal("periodic halo overflow accepted")
	}
}

func TestStreamResidentBytesMonotone(t *testing.T) {
	cfg, prog, an := streamTestSetup(t)
	domain := grid.Sz(128, 16, 16)
	prev := 0.0
	for _, w := range []int{4, 8, 16, 32, 64} {
		sp, err := NewStreamPlan(domain, 2, StreamChoice{TilePlanes: w, K: 2}, an.InputExtents[prog.Feedback], cfg.Boundary)
		if err != nil {
			t.Fatal(err)
		}
		b := sp.ResidentBytes(cfg, prog)
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

	slow, err := streamCost(cfg, prog, an, domain, 8, choice, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := streamCost(cfg, prog, an, domain, 8, choice, 1e12)
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
	k2, err := streamCost(cfg, prog, an, domain, 8, StreamChoice{TilePlanes: 24, K: 2}, 1e6)
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

// compiledCells plans and compiles cfg on domain and returns the stage cells
// the model prices for one Run (plan.runCells) and the cells the compiled
// kernel items sweep, with the compiled schedule's stats.
func compiledCells(t *testing.T, cfg Config, prog *stencil.Program, an *stencil.HaloAnalysis, domain grid.Size) (priced, compiled int64, st ScheduleStats) {
	t.Helper()
	p, err := newPlanWith(cfg, prog, an, domain)
	if err != nil {
		t.Fatal(err)
	}
	priced, _ = p.runCells()
	var log []string
	r, err := NewRunner(cfg, recordingProgram(&log), mpdata.NewState(domain).InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return priced, scheduleKernelCells(r, &log), r.Schedule().Stats()
}

// streamCellCases are the strategies and temporal-blocking factors the cell
// tests cover — every strategy at k = 1, the islands shapes also at k = 2, 4 —
// with the domain's j-width: core-level sub-islands need 96 j-cells over 8
// workers to carry k = 4 rather than fall back to k = 1.
var streamCellCases = []struct {
	name string
	cfg  Config
	ks   []int
	nj   int
}{
	{"original", Config{Strategy: Original}, []int{1}, 12},
	{"plus31d", Config{Strategy: Plus31D}, []int{1}, 12},
	{"islands", Config{Strategy: IslandsOfCores}, []int{1, 2, 4}, 12},
	{"core-islands", Config{Strategy: IslandsOfCores, CoreIslands: true}, []int{1, 2, 4}, 100},
}

// TestStreamCostCellsMatchCompiledSchedule pins the cost model to the
// executor: for the first, an interior and the last tile of a stream, for
// every strategy, the stage cells StreamCost prices for the tile are exactly
// the cells the tile engine's compiled kernel items sweep — window honoured
// or fallen back (the narrow last tile cannot carry k=4 on its own planes).
// The picker's ranking and the engine cannot drift apart without failing
// here.
func TestStreamCostCellsMatchCompiledSchedule(t *testing.T) {
	base, prog, an := streamTestSetup(t)
	const tilePlanes = 26
	fext := an.InputExtents[prog.Feedback]
	for _, sc := range streamCellCases {
		domain := grid.Sz(100, sc.nj, 6)
		for _, k := range sc.ks {
			cfg := sc.cfg
			cfg.Machine, cfg.Boundary, cfg.Steps = base.Machine, base.Boundary, base.Steps
			sp, err := NewStreamPlan(domain, k, StreamChoice{TilePlanes: tilePlanes, K: k}, fext, cfg.Boundary)
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.Tiles) != 4 {
				t.Fatalf("%s k=%d: %d tiles, want 4", sc.name, k, len(sp.Tiles))
			}
			var sweepCells int64
			fallbacks := 0
			for ti, tile := range sp.Tiles {
				tileCfg, size := StreamTileConfig(cfg, k, domain, tile.StreamShape)
				priced, compiled, st := compiledCells(t, tileCfg, prog, an, size)
				sweepCells += priced
				if priced != compiled {
					t.Errorf("%s k=%d tile %d %+v: model prices %d stage cells, the compiled schedule sweeps %d (%s)",
						sc.name, k, ti, tile, priced, compiled, st)
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
					t.Errorf("%s k=%d tile %d: windowed schedule sweeps %d cells, no fewer than the whole loaded extent's %d",
						sc.name, k, ti, compiled, loaded)
				}
			}
			if want := map[int]int{1: 0, 2: 0, 4: 1}[k]; fallbacks != want {
				t.Errorf("%s k=%d: %d tiles fell back to the whole extent, want %d", sc.name, k, fallbacks, want)
			}
			cost, err := streamCost(cfg, prog, an, domain, k, StreamChoice{TilePlanes: tilePlanes, K: k}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cost.StageCells != float64(sweepCells) {
				t.Errorf("%s k=%d: StreamCost.StageCells = %v, want the tiles' %d", sc.name, k, cost.StageCells, sweepCells)
			}
		}
	}
}

// TestRunCellsMatchCompiledSchedule is the resident half of the pin: without
// an output window, on a clamped odd-shaped multi-block grid, the cells the
// model prices for a Run of every strategy are exactly the cells its
// compiled kernel items sweep — two single steps at k = 1, one k-step block
// otherwise.
func TestRunCellsMatchCompiledSchedule(t *testing.T) {
	base, prog, an := streamTestSetup(t)
	for _, sc := range streamCellCases {
		domain := grid.Sz(37, sc.nj, 5)
		for _, k := range sc.ks {
			cfg := sc.cfg
			cfg.Machine, cfg.Boundary, cfg.BlockI = base.Machine, stencil.Clamp, 5
			cfg.Steps, cfg.KSteps = max(k, 2), k
			priced, compiled, st := compiledCells(t, cfg, prog, an, domain)
			if priced != compiled {
				t.Errorf("%s k=%d: model prices %d stage cells, the compiled schedule sweeps %d (%s)",
					sc.name, k, priced, compiled, st)
			}
		}
	}
}
