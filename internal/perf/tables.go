package perf

import (
	"fmt"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// Table1 regenerates the paper's Table 1: execution times of the original
// version (without and with first-touch parallel initialization) and of the
// pure (3+1)D decomposition, for P = 1..MaxP.
func (s *Sweep) Table1() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 1: execution times [s] of %d MPDATA time steps, grid %v",
			s.Steps, s.Domain),
		ColHead: "# CPUs",
		Cols:    s.cols(),
	}
	serial, err := s.times(exec.Original, grid.FirstTouchSerial, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	ft, err := s.times(exec.Original, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	blocked, err := s.times(exec.Plus31D, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	t.AddRow("Original", "%.1f", serial)
	t.AddRow("Original (first-touch)", "%.1f", ft)
	t.AddRow("(3+1)D (first-touch)", "%.1f", blocked)
	return t, nil
}

// Table2 regenerates Table 2: redundant ("extra") elements as a percentage
// of the baseline, for 1D island mappings across the first (variant A) and
// second (variant B) grid dimensions — computed mechanically from the
// 17-stage dependency analysis.
func Table2(prog *stencil.Program, domain grid.Size, maxP int) (*Table, error) {
	h, err := stencil.Analyze(prog)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 2: total extra elements [%%] vs original, domain %v", domain),
		ColHead: "# islands",
	}
	var va, vb []float64
	for p := 1; p <= maxP; p++ {
		t.Cols = append(t.Cols, fmt.Sprintf("%d", p))
		va = append(va, decomp.ExtraElementsPercent(h, domain, decomp.Partition1D(domain, p, decomp.VariantA)))
		vb = append(vb, decomp.ExtraElementsPercent(h, domain, decomp.Partition1D(domain, p, decomp.VariantB)))
	}
	t.AddRow("Variant A [%]", "%.2f", va)
	t.AddRow("Variant B [%]", "%.2f", vb)
	return t, nil
}

// Table3 regenerates Table 3 (and the series of Fig. 2): execution times of
// the original version, the pure (3+1)D decomposition, and the
// islands-of-cores approach, plus the partial speedup S_pr (vs (3+1)D) and
// overall speedup S_ov (vs original).
func (s *Sweep) Table3() (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 3: execution times [s] and speedups, %d steps, grid %v",
			s.Steps, s.Domain),
		ColHead: "# CPUs",
		Cols:    s.cols(),
	}
	ft, err := s.times(exec.Original, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	blocked, err := s.times(exec.Plus31D, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	isl, err := s.times(exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	t.AddRow("Original", "%.2f", ft)
	t.AddRow("(3+1)D", "%.2f", blocked)
	t.AddRow("Islands of cores", "%.2f", isl)
	t.AddRow("S_pr", "%.2f", Speedups(blocked, isl))
	t.AddRow("S_ov", "%.2f", Speedups(ft, isl))
	return t, nil
}

// Table4 regenerates Table 4: theoretical peak, sustained performance,
// utilization rate and parallel efficiency of the islands-of-cores approach.
// Parallel efficiency is relative to linear scaling of the P=1 time.
func (s *Sweep) Table4() (*Table, error) {
	t := &Table{
		Title:   "Table 4: sustained performance of the islands-of-cores approach",
		ColHead: "# CPUs",
		Cols:    s.cols(),
	}
	var theo, sustained, util, eff []float64
	var t1 float64
	for p := 1; p <= s.MaxP; p++ {
		r, err := s.Get(p, exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA)
		if err != nil {
			return nil, err
		}
		if p == 1 {
			t1 = r.TotalTime
		}
		peak := 105.6 * float64(p)
		g := r.SustainedFlops() / 1e9
		theo = append(theo, peak)
		sustained = append(sustained, g)
		util = append(util, 100*g/peak)
		eff = append(eff, 100*t1/(r.TotalTime*float64(p)))
	}
	t.AddRow("Theoretical [Gflop/s]", "%.1f", theo)
	t.AddRow("Sustained [Gflop/s]", "%.1f", sustained)
	t.AddRow("Utilization [%]", "%.1f", util)
	t.AddRow("Parallel efficiency [%]", "%.1f", eff)
	return t, nil
}

// VariantTable is the §5 ablation: islands-of-cores execution times with the
// domain distributed across the first (variant A) versus the second
// (variant B) dimension. The paper reports variant A wins for all P.
func (s *Sweep) VariantTable() (*Table, error) {
	t := &Table{
		Title:   "Ablation: islands-of-cores, 1D mapping variant A vs variant B [s]",
		ColHead: "# CPUs",
		Cols:    s.cols(),
	}
	va, err := s.times(exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	vb, err := s.times(exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantB)
	if err != nil {
		return nil, err
	}
	t.AddRow("Variant A", "%.2f", va)
	t.AddRow("Variant B", "%.2f", vb)
	return t, nil
}

// Islands2DTable is the §4.2 future-work study: islands-of-cores with every
// 2D factorization of the node count, against the paper's 1D variant A.
// Rows report modeled time and the redundant-element percentage, showing the
// surface-to-volume advantage of balanced 2D grids and the communication
// cost structure that made the paper start with 1D.
func (s *Sweep) Islands2DTable(p int) (*Table, error) {
	m, err := topology.UV2000(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Extension: 2D island grids at P=%d (paper §4.2 future work)", p),
		ColHead: "island grid",
	}
	var times, extras []float64
	for pi := 1; pi <= p; pi++ {
		if p%pi != 0 {
			continue
		}
		pj := p / pi
		r, err := exec.Model(exec.Config{
			Machine:    m,
			Strategy:   exec.IslandsOfCores,
			Placement:  grid.FirstTouchParallel,
			IslandGrid: [2]int{pi, pj},
			Steps:      s.Steps,
		}, s.Prog, s.Domain)
		if err != nil {
			return nil, err
		}
		t.Cols = append(t.Cols, fmt.Sprintf("%dx%d", pi, pj))
		times = append(times, r.TotalTime)
		extras = append(extras, r.ExtraElementsPct)
	}
	t.AddRow("Time [s]", "%.2f", times)
	t.AddRow("Extra elements [%]", "%.2f", extras)
	return t, nil
}

// TrafficTable reproduces §3.2's single-socket memory-traffic measurements:
// 133 GB per 50 steps for the original version vs 30 GB after the (3+1)D
// decomposition (256x256x64 grid), and the resulting speedup.
func TrafficTable(prog *stencil.Program) (*Table, error) {
	domain := grid.Sz(256, 256, 64)
	s := NewSweep(prog, domain, 50, 1)
	orig, err := s.Get(1, exec.Original, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	blocked, err := s.Get(1, exec.Plus31D, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Memory traffic, one socket, 256x256x64, 50 steps (paper §3.2: 133 GB -> 30 GB, 2.8x)",
		ColHead: "version",
		Cols:    []string{"traffic GB", "time s"},
	}
	t.AddRow("Original", "%.1f", []float64{orig.MemTrafficBytes / 1e9, orig.TotalTime})
	t.AddRow("(3+1)D", "%.1f", []float64{blocked.MemTrafficBytes / 1e9, blocked.TotalTime})
	t.AddRow("Speedup", "%.2f", []float64{orig.MemTrafficBytes / blocked.MemTrafficBytes,
		orig.TotalTime / blocked.TotalTime})
	return t, nil
}

// CountersTable renders the per-socket memory-controller and per-link
// interconnect traffic of a priced configuration — the counters
// likwid-perfctr (the paper's measurement tool, §3.2) reports on the real
// machine. It makes placement pathologies visible at a glance: under serial
// first-touch every byte is served by socket 0.
func CountersTable(m *topology.Machine, r *exec.ModelResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Traffic counters: %v, placement %v (%d steps)",
			r.Config.Strategy, r.Config.Placement, r.Config.Steps),
		ColHead: "counter",
		Cols:    []string{"GB"},
	}
	for n, b := range r.NodeMemBytes {
		t.AddRow(fmt.Sprintf("mem controller %d", n), "%.2f", []float64{b / 1e9})
	}
	for l, b := range r.LinkBytes {
		link := m.Links[l]
		t.AddRow(fmt.Sprintf("link %d (%d-%d)", l, link.A, link.B), "%.2f", []float64{b / 1e9})
	}
	t.AddRow("total main memory", "%.2f", []float64{r.MemTrafficBytes / 1e9})
	t.AddRow("total NUMAlink", "%.2f", []float64{r.RemoteTrafficBytes / 1e9})
	return t
}
