package islands

// Extension benchmarks: the paper's future-work directions implemented in
// this repository (2D island grids, core-level sub-islands, cluster scaling,
// strategy advice, higher-order MPDATA variants).

import (
	"fmt"
	"testing"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// BenchmarkIslands2D prices the 2D island factorizations at P=14 (§4.2).
func BenchmarkIslands2D(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	m, err := topology.UV2000(14)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range [][2]int{{14, 1}, {7, 2}, {2, 7}} {
		b.Run(fmt.Sprintf("%dx%d", g[0], g[1]), func(b *testing.B) {
			var last *exec.ModelResult
			for i := 0; i < b.N; i++ {
				var err error
				last, err = exec.Model(exec.Config{
					Machine: m, Strategy: exec.IslandsOfCores,
					Placement: grid.FirstTouchParallel, IslandGrid: g, Steps: paperSteps,
				}, prog, paperGrid)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.TotalTime, "modeled-s")
			b.ReportMetric(last.ExtraElementsPct, "extra-%")
		})
	}
}

// BenchmarkCoreIslands contrasts team islands against per-core sub-islands
// (§6) at the paper's scale.
func BenchmarkCoreIslands(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	m, err := topology.UV2000(14)
	if err != nil {
		b.Fatal(err)
	}
	for _, core := range []bool{false, true} {
		name := "team-islands"
		if core {
			name = "core-sub-islands"
		}
		b.Run(name, func(b *testing.B) {
			var last *exec.ModelResult
			for i := 0; i < b.N; i++ {
				var err error
				last, err = exec.Model(exec.Config{
					Machine: m, Strategy: exec.IslandsOfCores,
					Placement: grid.FirstTouchParallel, CoreIslands: core, Steps: paperSteps,
				}, prog, paperGrid)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.TotalTime, "modeled-s")
			b.ReportMetric(last.ExtraElementsPct, "extra-%")
		})
	}
}

// BenchmarkClusterScaling extends the strong-scaling study past one machine
// (§6's MPI direction): islands across InfiniBand-joined UV IRUs.
func BenchmarkClusterScaling(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	for _, cfg := range []struct{ irus, per int }{{1, 14}, {2, 14}, {4, 14}} {
		b.Run(fmt.Sprintf("%dxUV-%d", cfg.irus, cfg.per), func(b *testing.B) {
			m, err := topology.ClusterOfUV(cfg.irus, cfg.per)
			if err != nil {
				b.Fatal(err)
			}
			var last *exec.ModelResult
			for i := 0; i < b.N; i++ {
				last, err = exec.Model(exec.Config{
					Machine: m, Strategy: exec.IslandsOfCores,
					Placement: grid.FirstTouchParallel, Steps: paperSteps,
				}, prog, grid.Sz(2048, 512, 64))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.TotalTime, "modeled-s")
			b.ReportMetric(last.SustainedFlops()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkAdvisor measures the full configuration search of the strategy
// advice: exec.RankCandidates over the advisor space at P=14.
func BenchmarkAdvisor(b *testing.B) {
	m, err := topology.UV2000(14)
	if err != nil {
		b.Fatal(err)
	}
	prog := &mpdata.NewProgram().Program
	for i := 0; i < b.N; i++ {
		if _, err := exec.RankCandidates(m, prog, grid.Sz(512, 256, 32), exec.Config{Steps: 10}, exec.AdvisorSpace()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIORDVariants prices the MPDATA order/limiter variants on the
// islands strategy: deeper stage graphs mean more flops and wider halos.
func BenchmarkIORDVariants(b *testing.B) {
	m, err := topology.UV2000(14)
	if err != nil {
		b.Fatal(err)
	}
	for _, o := range []mpdata.Options{
		{IORD: 1},
		{IORD: 2},
		{IORD: 2, NonOscillatory: true},
		{IORD: 3, NonOscillatory: true},
	} {
		name := fmt.Sprintf("iord%d", o.IORD)
		if o.NonOscillatory {
			name += "-nonosc"
		}
		b.Run(name, func(b *testing.B) {
			kp, err := mpdata.NewProgramWithOptions(o)
			if err != nil {
				b.Fatal(err)
			}
			var last *exec.ModelResult
			for i := 0; i < b.N; i++ {
				last, err = exec.Model(exec.Config{
					Machine: m, Strategy: exec.IslandsOfCores,
					Placement: grid.FirstTouchParallel, Steps: paperSteps,
				}, &kp.Program, paperGrid)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last.TotalTime, "modeled-s")
			b.ReportMetric(float64(kp.TotalFlopsPerCellStep()), "flops/cell")
		})
	}
}

// BenchmarkVariantExtraElements measures the redundancy accounting for a 2D
// partition at the paper's scale.
func BenchmarkVariantExtraElements(b *testing.B) {
	prog := &mpdata.NewProgram().Program
	h, err := stencil.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		parts := decomp.Partition2D(paperGrid, 7, 2)
		_ = decomp.ExtraElementsPercent(h, paperGrid, parts)
	}
}
