package islands

// Out-of-core streaming benchmarks (docs/STREAMING.md): the same domain and
// step count advanced two ways —
//
//	BenchmarkStreamResident  — one whole-domain tile (TilePlanes=0), the
//	                           in-memory baseline through the store machinery
//	BenchmarkStreamTiled     — many budget-sized tiles through the
//	                           double-buffered load/writeback pipeline
//
// The figure of merit is cells/s; the tiled arm also reports its
// compute/I-O overlap efficiency — the share of wall time the pipeline did
// not leave exposed to a load or writeback stall.
//
// These names deliberately do not share the ^BenchmarkCompute prefix: the CI
// bench-smoke gate fails on allocs/op > 0, a compiled-schedule invariant the
// streaming path does not have (tile loads allocate by design).

import (
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/stream"
	"islands/internal/topology"
)

// streamBench runs the standard problem through a fresh tile store per
// iteration. The domain comfortably fits in memory — the benchmark isolates
// the streaming machinery's overhead and overlap, not real disk pressure.
func streamBench(b *testing.B, tilePlanes int) {
	b.Helper()
	domain := grid.Sz(192, 32, 16)
	const steps = 4
	m, err := topology.UV2000(1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exec.Config{
		Machine: m, Strategy: exec.Original,
		Boundary: stencil.Clamp, Steps: steps, KSteps: 1, BlockI: 16,
	}
	var last stream.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := stream.New(stream.Options{
			Dir:        b.TempDir(),
			Exec:       cfg,
			Domain:     domain,
			TilePlanes: tilePlanes,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		last = s.Stats()
		if err := s.Remove(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(domain.Cells())*steps*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
	if tilePlanes > 0 {
		b.ReportMetric(last.OverlapEfficiency()*100, "overlap-%")
		b.ReportMetric(float64(last.Tiles), "tiles")
	}
}

func BenchmarkStreamResident(b *testing.B) { streamBench(b, 0) }
func BenchmarkStreamTiled(b *testing.B)    { streamBench(b, 32) }
