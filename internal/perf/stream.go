package perf

import (
	"fmt"

	"islands/internal/stream"
)

// StreamTable summarizes one out-of-core streamed run (docs/STREAMING.md):
// the residency plan — tile width, temporal factor k, sweep count — next to
// the measured disk traffic, stall budget and compute/I-O overlap. It is the
// mpdata-sim -stream-budget-mb report and the profiler-side face of the
// serving layer's StreamReport.
func StreamTable(plan *stream.Plan, st stream.Stats) *Table {
	t := &Table{
		Title: fmt.Sprintf("out-of-core stream: %v in %d tiles x %d sweeps (w=%d, k=%d)",
			plan.Domain, len(plan.Tiles), plan.Sweeps, plan.TilePlanes, plan.K),
		ColHead: "metric",
		Cols:    []string{"value"},
	}
	mib := func(b int64) float64 { return float64(b) / (1 << 20) }
	ms := func(d interface{ Seconds() float64 }) float64 { return d.Seconds() * 1e3 }
	t.AddRow("tiles completed", "%.0f", []float64{float64(st.TilesDone)})
	t.AddRow("bytes read [MiB]", "%.1f", []float64{mib(st.BytesRead)})
	t.AddRow("bytes written [MiB]", "%.1f", []float64{mib(st.BytesWritten)})
	t.AddRow("disk throughput [MiB/s]", "%.0f", []float64{st.DiskBW() / (1 << 20)})
	t.AddRow("compute [ms]", "%.1f", []float64{ms(st.Compute)})
	t.AddRow("load stall [ms]", "%.1f", []float64{ms(st.LoadStall)})
	t.AddRow("write stall [ms]", "%.1f", []float64{ms(st.WriteStall)})
	t.AddRow("wall [ms]", "%.1f", []float64{ms(st.Wall)})
	t.AddRow("overlap efficiency [%]", "%.1f", []float64{st.OverlapEfficiency() * 100})
	mmap := 0.0
	if st.Mmap {
		mmap = 1
	}
	t.AddRow("mmap reads (1=on)", "%.0f", []float64{mmap})
	return t
}
