package exec

import (
	"math"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// paperDomain and paperSteps are the evaluation setting of the paper: a
// 1024x512x64 grid and 50 time steps.
var paperDomain = grid.Sz(1024, 512, 64)

const paperSteps = 50

func modelTime(t *testing.T, p int, strat Strategy, placement grid.PlacementPolicy) *ModelResult {
	t.Helper()
	m, err := topology.UV2000(p)
	if err != nil {
		t.Fatal(err)
	}
	prog := &mpdata.NewProgram().Program
	res, err := Model(Config{
		Machine: m, Strategy: strat, Placement: placement, Steps: paperSteps,
	}, prog, paperDomain)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestModelAnchors pins the single-socket calibration anchors: the original
// version's P=1 time comes straight from the measured memory bandwidth and
// the mechanical traversal count, and must stay within 2% of the paper's
// 30.4 s; the blocked strategies' P=1 time must stay within 6% of 9.0 s.
func TestModelAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale model run")
	}
	orig := modelTime(t, 1, Original, grid.FirstTouchParallel)
	if d := math.Abs(orig.TotalTime-30.4) / 30.4; d > 0.02 {
		t.Errorf("original P=1: %.2fs, paper 30.4s (%.1f%% off)", orig.TotalTime, 100*d)
	}
	blocked := modelTime(t, 1, Plus31D, grid.FirstTouchParallel)
	if d := math.Abs(blocked.TotalTime-9.0) / 9.0; d > 0.06 {
		t.Errorf("(3+1)D P=1: %.2fs, paper 9.0s (%.1f%% off)", blocked.TotalTime, 100*d)
	}
	isl := modelTime(t, 1, IslandsOfCores, grid.FirstTouchParallel)
	if isl.TotalTime != blocked.TotalTime {
		t.Errorf("islands P=1 (%.3fs) must equal (3+1)D P=1 (%.3fs)", isl.TotalTime, blocked.TotalTime)
	}
}

// TestModelTable1Shape checks the qualitative findings of Table 1:
// serial-init original degrades monotonically with P; first-touch original
// scales; pure (3+1)D beats original only for P <= 3 and is overtaken for
// P >= 4 (the paper's crossover).
func TestModelTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale model run")
	}
	var serial, ft, blocked []float64
	for _, p := range []int{1, 2, 4, 8, 14} {
		serial = append(serial, modelTime(t, p, Original, grid.FirstTouchSerial).TotalTime)
		ft = append(ft, modelTime(t, p, Original, grid.FirstTouchParallel).TotalTime)
		blocked = append(blocked, modelTime(t, p, Plus31D, grid.FirstTouchParallel).TotalTime)
	}
	for i := 1; i < len(serial); i++ {
		if serial[i] < serial[i-1] {
			t.Errorf("serial-init original must degrade with P: %v", serial)
		}
		if ft[i] > ft[i-1] {
			t.Errorf("first-touch original must improve with P: %v", ft)
		}
	}
	// Serial-init at P=14 is catastrophically slower than first-touch.
	if serial[4] < 10*ft[4] {
		t.Errorf("serial-init P=14 (%.1fs) should be >10x first-touch (%.1fs)", serial[4], ft[4])
	}
	// (3+1)D wins at P=1 by >3x (paper: 3.37x)...
	if r := ft[0] / blocked[0]; r < 3 || r > 3.8 {
		t.Errorf("(3+1)D P=1 speedup %.2fx, paper 3.37x", r)
	}
	// ...but loses to the original version at P >= 4.
	if blocked[2] < ft[2] {
		t.Errorf("(3+1)D (%.2fs) should lose to original (%.2fs) at P=4", blocked[2], ft[2])
	}
	if blocked[4] < 2*ft[4] {
		t.Errorf("(3+1)D at P=14 (%.2fs) should be >2x slower than original (%.2fs)", blocked[4], ft[4])
	}
}

// TestModelTable3Shape checks the headline result: the islands approach
// accelerates the pure (3+1)D decomposition by an order of magnitude at
// P=14 (paper: 10.3x) while keeping a roughly constant advantage over the
// original version (paper: S_ov ~2.7-3.0).
func TestModelTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale model run")
	}
	for _, p := range []int{2, 8, 14} {
		isl := modelTime(t, p, IslandsOfCores, grid.FirstTouchParallel).TotalTime
		blocked := modelTime(t, p, Plus31D, grid.FirstTouchParallel).TotalTime
		ft := modelTime(t, p, Original, grid.FirstTouchParallel).TotalTime
		if isl >= blocked {
			t.Errorf("P=%d: islands (%.2fs) must beat (3+1)D (%.2fs)", p, isl, blocked)
		}
		if isl >= ft {
			t.Errorf("P=%d: islands (%.2fs) must beat original (%.2fs)", p, isl, ft)
		}
		sov := ft / isl
		if sov < 2.3 || sov > 3.5 {
			t.Errorf("P=%d: S_ov = %.2f outside the paper's 2.5-3.0 band", p, sov)
		}
		if p == 14 {
			if spr := blocked / isl; spr < 9 || spr > 14 {
				t.Errorf("P=14: S_pr = %.1f, paper reports 10.3 (want 9-14)", spr)
			}
		}
	}
}

// TestModelTable4Utilization: sustained performance sits near 30% of
// theoretical peak across the range (paper: 40.4% at P=1 decaying to 26.3%).
func TestModelTable4Utilization(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale model run")
	}
	for _, p := range []int{1, 4, 14} {
		res := modelTime(t, p, IslandsOfCores, grid.FirstTouchParallel)
		util := res.SustainedFlops() / (105.6e9 * float64(p))
		if util < 0.24 || util > 0.45 {
			t.Errorf("P=%d: utilization %.1f%%, want 24-45%%", p, 100*util)
		}
	}
	// Peak sustained at P=14 lands in the paper's neighbourhood
	// (390 Gflop/s +- 25%).
	res := modelTime(t, 14, IslandsOfCores, grid.FirstTouchParallel)
	if g := res.SustainedFlops() / 1e9; g < 300 || g > 500 {
		t.Errorf("P=14 sustained %.0f Gflop/s, want 300-500", g)
	}
}

// TestModelTrafficMatchesPaper reproduces §3.2's likwid-perfctr numbers for
// the 256x256x64 grid and 50 steps: 133 GB for the original version, 30 GB
// after the (3+1)D decomposition.
func TestModelTrafficMatchesPaper(t *testing.T) {
	domain := grid.Sz(256, 256, 64)
	m := topology.SingleSocket()
	prog := &mpdata.NewProgram().Program
	orig, err := Model(Config{Machine: m, Strategy: Original, Steps: 50}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if gb := orig.MemTrafficBytes / 1e9; math.Abs(gb-134.2) > 1 {
		t.Errorf("original traffic %.1f GB, want ~134 (paper: 133)", gb)
	}
	blocked, err := Model(Config{Machine: m, Strategy: Plus31D, Steps: 50}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if gb := blocked.MemTrafficBytes / 1e9; math.Abs(gb-30.2) > 1 {
		t.Errorf("(3+1)D traffic %.1f GB, want ~30 (paper: 30)", gb)
	}
}

func TestModelRedundancyAccounting(t *testing.T) {
	m, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(128, 64, 16)
	for _, strat := range []Strategy{Original, Plus31D} {
		res, err := Model(Config{Machine: m, Strategy: strat, Steps: 1}, prog, domain)
		if err != nil {
			t.Fatal(err)
		}
		if res.RedundantFlops != 0 || res.ExtraElementsPct != 0 {
			t.Errorf("%v: redundancy must be zero, got %v flops / %v%%",
				strat, res.RedundantFlops, res.ExtraElementsPct)
		}
	}
	isl, err := Model(Config{Machine: m, Strategy: IslandsOfCores, Steps: 1}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if isl.RedundantFlops <= 0 || isl.ExtraElementsPct <= 0 {
		t.Error("islands redundancy must be positive")
	}
	// Redundancy stays small (a few percent), as Table 2 promises.
	if isl.ExtraElementsPct > 10 {
		t.Errorf("extra elements %.2f%%, expected a small overhead", isl.ExtraElementsPct)
	}
}

func TestModelRemoteTraffic(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(128, 64, 16)
	single := topology.SingleSocket()
	res, err := Model(Config{Machine: single, Strategy: Original, Steps: 2}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteTrafficBytes != 0 {
		t.Errorf("single socket must have zero remote traffic, got %v", res.RemoteTrafficBytes)
	}
	multi, _ := topology.UV2000(4)
	serial, err := Model(Config{Machine: multi, Strategy: Original,
		Placement: grid.FirstTouchSerial, Steps: 2}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Model(Config{Machine: multi, Strategy: Original,
		Placement: grid.FirstTouchParallel, Steps: 2}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if serial.RemoteTrafficBytes <= 10*ft.RemoteTrafficBytes {
		t.Errorf("serial placement remote traffic (%.0f) should dwarf first-touch (%.0f)",
			serial.RemoteTrafficBytes, ft.RemoteTrafficBytes)
	}
}

// TestModelClampHaloFromNeighbour: each island reads its step inputs' halo
// from a neighbouring island's node. Under a clamp boundary the last island's
// only neighbour is the one before it, one blade away on the UV 2000's
// chain; under a periodic boundary it also wraps to island 0 at the far end,
// which the model prices. So from p = 4 on a clamped run moves fewer NUMAlink
// bytes than the periodic one, while at p = 2 the two neighbours coincide.
func TestModelClampHaloFromNeighbour(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(128, 64, 16)
	remote := func(p int, bc stencil.Boundary) float64 {
		r, err := Model(Config{Machine: uv(t, p), Strategy: IslandsOfCores,
			Placement: grid.FirstTouchParallel, Boundary: bc, Steps: 2}, prog, domain)
		if err != nil {
			t.Fatal(err)
		}
		return r.RemoteTrafficBytes
	}
	for _, p := range []int{4, 8, 14} {
		if clamp, periodic := remote(p, stencil.Clamp), remote(p, stencil.Periodic); clamp >= periodic {
			t.Errorf("p=%d: clamped islands move %.0f NUMAlink bytes, no fewer than periodic's %.0f", p, clamp, periodic)
		}
	}
	if clamp, periodic := remote(2, stencil.Clamp), remote(2, stencil.Periodic); clamp != periodic {
		t.Errorf("p=2: clamped islands move %.0f NUMAlink bytes, periodic %.0f; the one neighbour is the same", clamp, periodic)
	}
}

func TestModelStepScaling(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(64, 32, 8)
	m := topology.SingleSocket()
	one, err := Model(Config{Machine: m, Strategy: IslandsOfCores, Steps: 1}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := Model(Config{Machine: m, Strategy: IslandsOfCores, Steps: 10}, prog, domain)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ten.TotalTime-10*one.TotalTime) > 1e-9*ten.TotalTime {
		t.Errorf("time must scale linearly with steps: %v vs 10*%v", ten.TotalTime, one.TotalTime)
	}
	if ten.StepTime != one.StepTime {
		t.Errorf("step time must not depend on step count")
	}
}

func TestSustainedFlopsZeroTime(t *testing.T) {
	r := &ModelResult{}
	if r.SustainedFlops() != 0 {
		t.Fatal("zero-time result must report zero sustained flops")
	}
}

// TestPlacementOrdering: an ablation the paper's Table 1 implies but does
// not print — interleaved pages sit between serial first-touch
// (catastrophic) and parallel first-touch (local) for the original version.
func TestPlacementOrdering(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	domain := grid.Sz(512, 256, 32)
	m, err := topology.UV2000(8)
	if err != nil {
		t.Fatal(err)
	}
	price := func(pl grid.PlacementPolicy) float64 {
		r, err := Model(Config{Machine: m, Strategy: Original, Placement: pl, Steps: 5}, prog, domain)
		if err != nil {
			t.Fatal(err)
		}
		return r.TotalTime
	}
	serial := price(grid.FirstTouchSerial)
	inter := price(grid.Interleaved)
	parallel := price(grid.FirstTouchParallel)
	if !(parallel < inter && inter < serial) {
		t.Fatalf("placement ordering broken: parallel %.3f, interleaved %.3f, serial %.3f",
			parallel, inter, serial)
	}
}
