package islands

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkTable1*    — Table 1: original (serial/first-touch) and (3+1)D
//	BenchmarkTable2     — Table 2: extra elements, variants A and B
//	BenchmarkTable3*    — Table 3 / Fig. 2: the three strategies + speedups
//	BenchmarkTable4     — Table 4: sustained Gflop/s and utilization
//	BenchmarkVariantAB  — §5 ablation: variant A vs B execution
//	BenchmarkTraffic    — §3.2: 133 GB -> 30 GB single-socket traffic
//	BenchmarkCrossover  — §4.1 extension: interconnect sweep
//	BenchmarkCompute*   — real parallel execution of the three strategies
//
// Modeled seconds for the paper's configuration are attached to each run as
// the custom metric "modeled-s"; paper values are in EXPERIMENTS.md.

import (
	"fmt"
	"testing"
	"time"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/topology"
	"islands/internal/tune"
)

var paperGrid = grid.Sz(1024, 512, 64)

const paperSteps = 50

// benchPs is the processor range the tables sweep; the full 1..14 range is
// covered by the CLI (cmd/paper-tables), benches sample the corners.
var benchPs = []int{1, 2, 4, 8, 14}

func modelBench(b *testing.B, strat exec.Strategy, placement grid.PlacementPolicy, variant decomp.Variant, p int) {
	b.Helper()
	m, err := topology.UV2000(p)
	if err != nil {
		b.Fatal(err)
	}
	prog := &mpdata.NewProgram().Program
	var last *exec.ModelResult
	for i := 0; i < b.N; i++ {
		last, err = exec.Model(exec.Config{
			Machine: m, Strategy: strat, Placement: placement, Variant: variant, Steps: paperSteps,
		}, prog, paperGrid)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.TotalTime, "modeled-s")
	b.ReportMetric(last.SustainedFlops()/1e9, "modeled-Gflop/s")
}

func BenchmarkTable1OriginalSerialInit(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			modelBench(b, exec.Original, grid.FirstTouchSerial, decomp.VariantA, p)
		})
	}
}

func BenchmarkTable1OriginalFirstTouch(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			modelBench(b, exec.Original, grid.FirstTouchParallel, decomp.VariantA, p)
		})
	}
}

func BenchmarkTable1Plus31D(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			modelBench(b, exec.Plus31D, grid.FirstTouchParallel, decomp.VariantA, p)
		})
	}
}

// BenchmarkTable2 measures the mechanical redundancy analysis itself and
// reports the variant A/B percentages at P=14 (paper: 3.21% / 6.42%).
func BenchmarkTable2ExtraElements(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	var a14, b14 float64
	for i := 0; i < b.N; i++ {
		h, err := stencil.Analyze(prog)
		if err != nil {
			b.Fatal(err)
		}
		a14 = decomp.ExtraElementsPercent(h, paperGrid, decomp.Partition1D(paperGrid, 14, decomp.VariantA))
		b14 = decomp.ExtraElementsPercent(h, paperGrid, decomp.Partition1D(paperGrid, 14, decomp.VariantB))
	}
	b.ReportMetric(a14, "variantA-%")
	b.ReportMetric(b14, "variantB-%")
}

// BenchmarkTable3 prices the three strategies and reports the headline
// speedups (paper at P=14: S_pr = 10.3, S_ov = 2.78).
func BenchmarkTable3Speedups(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			m, err := topology.UV2000(p)
			if err != nil {
				b.Fatal(err)
			}
			prog := &mpdata.NewProgram().Program
			var spr, sov float64
			for i := 0; i < b.N; i++ {
				price := func(s exec.Strategy) float64 {
					r, err := exec.Model(exec.Config{
						Machine: m, Strategy: s, Placement: grid.FirstTouchParallel, Steps: paperSteps,
					}, prog, paperGrid)
					if err != nil {
						b.Fatal(err)
					}
					return r.TotalTime
				}
				orig := price(exec.Original)
				blocked := price(exec.Plus31D)
				isl := price(exec.IslandsOfCores)
				spr = blocked / isl
				sov = orig / isl
			}
			b.ReportMetric(spr, "S_pr")
			b.ReportMetric(sov, "S_ov")
		})
	}
}

func BenchmarkTable3Islands(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			modelBench(b, exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA, p)
		})
	}
}

// BenchmarkTable4 reports sustained performance and utilization of the
// islands approach (paper at P=14: 390.1 Gflop/s, 26.3%).
func BenchmarkTable4Sustained(b *testing.B) {
	for _, p := range benchPs {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			m, err := topology.UV2000(p)
			if err != nil {
				b.Fatal(err)
			}
			prog := &mpdata.NewProgram().Program
			var g, util float64
			for i := 0; i < b.N; i++ {
				r, err := exec.Model(exec.Config{
					Machine: m, Strategy: exec.IslandsOfCores,
					Placement: grid.FirstTouchParallel, Steps: paperSteps,
				}, prog, paperGrid)
				if err != nil {
					b.Fatal(err)
				}
				g = r.SustainedFlops() / 1e9
				util = 100 * r.SustainedFlops() / m.PeakFlops()
			}
			b.ReportMetric(g, "Gflop/s")
			b.ReportMetric(util, "util-%")
		})
	}
}

// BenchmarkVariantAB is the §5 mapping ablation at P=14.
func BenchmarkVariantAB(b *testing.B) {
	for _, v := range []decomp.Variant{decomp.VariantA, decomp.VariantB} {
		b.Run("variant"+v.String(), func(b *testing.B) {
			modelBench(b, exec.IslandsOfCores, grid.FirstTouchParallel, v, 14)
		})
	}
}

// BenchmarkTraffic reproduces §3.2's single-socket traffic comparison
// (paper: 133 GB vs 30 GB for 256x256x64, 50 steps).
func BenchmarkTraffic(b *testing.B) {
	domain := grid.Sz(256, 256, 64)
	m := topology.SingleSocket()
	prog := &mpdata.NewProgram().Program
	for _, strat := range []exec.Strategy{exec.Original, exec.Plus31D} {
		b.Run(strat.String(), func(b *testing.B) {
			var gb float64
			for i := 0; i < b.N; i++ {
				r, err := exec.Model(exec.Config{Machine: m, Strategy: strat, Steps: 50}, prog, domain)
				if err != nil {
					b.Fatal(err)
				}
				gb = r.MemTrafficBytes / 1e9
			}
			b.ReportMetric(gb, "traffic-GB")
		})
	}
}

// BenchmarkCrossover sweeps the interconnect quality (the §4.1 trade-off /
// future-work extension) and reports the islands' advantage at the extremes.
func BenchmarkCrossover(b *testing.B) {
	domain := grid.Sz(512, 256, 32)
	prog := &mpdata.NewProgram().Program
	for _, pt := range []struct {
		name string
		bw   float64
		lat  float64
	}{
		{"fast-fabric", 200e9, 0.05e-6},
		{"numalink", 13.4e9, 0.35e-6},
		{"slow-network", 1e9, 5e-6},
	} {
		b.Run(pt.name, func(b *testing.B) {
			m, err := topology.Symmetric(8, pt.bw, pt.lat)
			if err != nil {
				b.Fatal(err)
			}
			var ratio float64
			for i := 0; i < b.N; i++ {
				price := func(s exec.Strategy) float64 {
					r, err := exec.Model(exec.Config{
						Machine: m, Strategy: s, Placement: grid.FirstTouchParallel, Steps: 10,
					}, prog, domain)
					if err != nil {
						b.Fatal(err)
					}
					return r.TotalTime
				}
				ratio = price(exec.Plus31D) / price(exec.IslandsOfCores)
			}
			b.ReportMetric(ratio, "islands-advantage-x")
		})
	}
}

// computeBench runs the real parallel computation (goroutine work teams) of
// one MPDATA time step with the given strategy and reports cell throughput
// and steady-state allocations (the compiled-schedule loop must stay at 0
// allocs/op).
func computeBench(b *testing.B, strat exec.Strategy, coreIslands, disableFusion bool) {
	b.Helper()
	domain := grid.Sz(128, 64, 16)
	m, err := topology.UV2000(2)
	if err != nil {
		b.Fatal(err)
	}
	state := mpdata.NewState(domain)
	state.SetGaussian(64, 32, 8, 4, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.1, 0.05)
	runner, err := exec.NewRunner(exec.Config{
		Machine: m, Strategy: strat, CoreIslands: coreIslands,
		Boundary: stencil.Clamp, Steps: 1, BlockI: 16, DisableFusion: disableFusion,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	// One untimed step first: the initial Run pays one-time costs (lazy
	// allocations, first-touch page faults on private buffers) that the
	// steady-state loop never sees again. Warming up makes allocs/op the
	// steady-state number even at -benchtime 1x, which is what the CI
	// bench-smoke gate checks against zero.
	if err := runner.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(domain.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

func BenchmarkComputeOriginal(b *testing.B)    { computeBench(b, exec.Original, false, false) }
func BenchmarkComputePlus31D(b *testing.B)     { computeBench(b, exec.Plus31D, false, false) }
func BenchmarkComputeIslands(b *testing.B)     { computeBench(b, exec.IslandsOfCores, false, false) }
func BenchmarkComputeCoreIslands(b *testing.B) { computeBench(b, exec.IslandsOfCores, true, false) }

// solverBenchDomains picks a benchmark domain per catalog solver: the shared
// 128x64x16 compute grid where the solver accepts it, and the closest shape
// satisfying the entry's k-packing constraint otherwise (docs/SOLVERS.md).
var solverBenchDomains = map[string]grid.Size{
	"lbm":  grid.Sz(128, 64, 9),
	"swe":  grid.Sz(128, 128, 3),
	"wave": grid.Sz(128, 128, 2),
	"life": grid.Sz(128, 128, 1),
}

// BenchmarkComputeSolvers runs one compiled islands-strategy step of every
// catalog solver — the per-solver arms of the BENCH_compute.json trajectory.
// Like computeBench, each arm must stay at 0 allocs/op in steady state.
func BenchmarkComputeSolvers(b *testing.B) {
	m, err := topology.UV2000(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range solver.Names() {
		entry, err := solver.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			domain, ok := solverBenchDomains[name]
			if !ok {
				domain = grid.Sz(128, 64, 16)
			}
			kp, err := entry.NewProgram(solver.Options{})
			if err != nil {
				b.Fatal(err)
			}
			state, err := entry.NewProblemState(domain)
			if err != nil {
				b.Fatal(err)
			}
			runner, err := exec.NewRunner(exec.Config{
				Machine: m, Strategy: exec.IslandsOfCores,
				Boundary: stencil.Clamp, Steps: 1, BlockI: 16,
			}, kp, state.Inputs, state.Feedback)
			if err != nil {
				b.Fatal(err)
			}
			defer runner.Close()
			if err := runner.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := runner.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(domain.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
		})
	}
}

// BenchmarkComputeIslandsNoFuse is the stage-fusion ablation: the same
// islands schedule compiled with one phase per stage (17 barriers per block
// instead of 7). The gap to BenchmarkComputeIslands is the fusion payoff.
func BenchmarkComputeIslandsNoFuse(b *testing.B) {
	computeBench(b, exec.IslandsOfCores, false, true)
}

// BenchmarkComputeTuned runs the autotuner's chosen configuration for the
// standard compute shape (the BenchmarkComputeIslands grid on 2 sockets).
// Before the timer starts it calibrates the top modeled candidates with
// short real runs — the one-shot tuning mode — including the default
// islands arm as the incumbent, so the winner is never worse than default
// by construction. Custom metrics record the chosen block width
// (tuned-blocki) and the measured advantage over the default islands arm
// (tuned-vs-default-x >= 1 within noise). The timed loop itself is the
// usual alloc-free dispatch.
func BenchmarkComputeTuned(b *testing.B) {
	domain := grid.Sz(128, 64, 16)
	m, err := topology.UV2000(2)
	if err != nil {
		b.Fatal(err)
	}
	kp := mpdata.NewProgram()
	prog := &kp.Program
	class := tune.Class{Domain: domain, Processors: 2, Boundary: stencil.Clamp, IORD: 2}
	tn, err := tune.New(tune.Options{Seed: 1, TopM: 6, Seeder: func(tune.Class) ([]tune.Candidate, error) {
		return tune.SeedCandidates(m, prog, class)
	}})
	if err != nil {
		b.Fatal(err)
	}
	base := class.BaseConfig(m)
	const calibSteps = 2 // timed steps per candidate: cheap enough for -benchtime 1x CI smoke
	measure := func(k tune.Knobs) (tune.Observation, error) {
		cfg := tune.ApplyKnobs(base, k)
		cfg.Steps = 1
		state := mpdata.NewState(domain)
		state.SetGaussian(64, 32, 8, 4, 1, 0.1)
		state.SetUniformVelocity(0.2, 0.1, 0.05)
		r, err := exec.NewRunner(cfg, kp, state.InputMap(), mpdata.InPsi)
		if err != nil {
			return tune.Observation{}, err
		}
		defer r.Close()
		if err := r.Run(); err != nil { // warm-up step
			return tune.Observation{}, err
		}
		t0 := time.Now()
		for i := 0; i < calibSteps; i++ {
			if err := r.Run(); err != nil {
				return tune.Observation{}, err
			}
		}
		return tune.Observation{StepSeconds: time.Since(t0).Seconds() / calibSteps, Steps: calibSteps}, nil
	}

	// The default islands arm (BenchmarkComputeIslands' config) is the
	// incumbent: measure it first so the tuner can never pick worse.
	def := tune.KnobsOf(exec.Config{
		Machine: m, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, BlockI: 16, Steps: 1,
	}, domain)
	defObs, err := measure(def)
	if err != nil {
		b.Fatal(err)
	}
	defObs.Knobs = def
	tn.Observe(class, defObs)
	dec, err := tn.Calibrate(class, def, measure)
	if err != nil {
		b.Fatal(err)
	}
	tunedStep := defObs.StepSeconds
	for _, c := range tn.Snapshot(class) {
		if c.Knobs == dec.Knobs && c.Obs > 0 {
			tunedStep = c.MeasuredStep
		}
	}

	cfg := tune.ApplyKnobs(base, dec.Knobs)
	cfg.Steps = 1
	state := mpdata.NewState(domain)
	state.SetGaussian(64, 32, 8, 4, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.1, 0.05)
	runner, err := exec.NewRunner(cfg, kp, state.InputMap(), mpdata.InPsi)
	if err != nil {
		b.Fatal(err)
	}
	defer runner.Close()
	if err := runner.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runner.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(domain.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	b.ReportMetric(float64(dec.Knobs.BlockI), "tuned-blocki")
	if tunedStep > 0 {
		b.ReportMetric(defObs.StepSeconds/tunedStep, "tuned-vs-default-x")
	}
}

// BenchmarkReferenceSolver measures the sequential reference MPDATA step.
func BenchmarkReferenceSolver(b *testing.B) {
	state := mpdata.NewState(grid.Sz(64, 64, 16))
	state.SetGaussian(32, 32, 8, 4, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.1, 0.05)
	solver, err := mpdata.NewSolver(state)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Step(1)
	}
	b.ReportMetric(float64(state.Domain.Cells())*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkHaloAnalysis measures the backward dependency analysis of the
// 17-stage program (the planning cost of the islands approach).
func BenchmarkHaloAnalysis(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	for i := 0; i < b.N; i++ {
		if _, err := stencil.Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}
