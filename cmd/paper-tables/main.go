// Command paper-tables regenerates the evaluation section of the paper on the
// simulated SGI UV 2000: Tables 1-4 with the published numbers interleaved
// (Table 3's rows are the series of Fig. 2), the ablations and extensions of
// EXPERIMENTS.md, and the MPDATA-variant and core-sub-island table. With no
// -table it prints the whole reproduction report in markdown — the committed
// report.md is its output.
//
// Usage:
//
//	paper-tables > report.md  # the full report
//	paper-tables -table 3     # one table (1-4 paper tables, 5 variant
//	                          # ablation, 6 traffic, 7 2D islands, 8 roofline,
//	                          # 9 weak scaling, 10 domain sweep, 11 affinity,
//	                          # 12 time breakdown, 13 MPDATA variants)
//	paper-tables -maxp 8      # restrict the processor sweep
//	paper-tables -csv         # comma-separated values for plotting
package main

import (
	"flag"
	"fmt"
	"log"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/perf"
	"islands/internal/topology"
)

// table is one numbered table of the report.
type table struct {
	id int
	// section heads the table in the report; empty continues the previous
	// section.
	section string
	build   func() (*perf.Table, error)
	// note, when set, is printed after the rendered table.
	note func(*perf.Table) string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("paper-tables: ")
	// No internal failure may escape as a raw panic with a stack trace:
	// convert anything unexpected into a diagnostic and exit status 1.
	defer func() {
		if p := recover(); p != nil {
			log.Fatalf("internal error: %v", p)
		}
	}()
	id := flag.Int("table", 0, "table to print (0 = the whole report; 1-4 paper tables, 5 variant ablation, 6 traffic, 7 2D islands, 8 roofline, 9 weak scaling, 10 domain sweep, 11 affinity, 12 time breakdown, 13 MPDATA variants)")
	maxP := flag.Int("maxp", 14, "largest number of UV 2000 processors to sweep")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned text")
	flag.Parse()
	if *maxP < 1 || *maxP > 14 {
		log.Fatalf("-maxp must be in 1..14, got %d", *maxP)
	}
	tables := paperTables(*maxP)
	if *id < 0 || *id > len(tables) {
		log.Fatalf("-table must be in 0..%d, got %d", len(tables), *id)
	}

	report := *id == 0 && !*csv
	if report {
		fmt.Printf("# Reproduction report: Islands-of-Cores (PaCT 2017)\n\n")
		fmt.Printf("Generated on the simulated SGI UV 2000 (P = 1..%d), grid %v, 50 steps.\n", *maxP, paperDomain)
	}
	for _, tb := range tables {
		if *id != 0 && *id != tb.id {
			continue
		}
		t, err := tb.build()
		if err != nil {
			log.Fatalf("table %d: %v", tb.id, err)
		}
		var note string
		if tb.note != nil {
			note = tb.note(t)
		}
		switch {
		case *csv:
			fmt.Print(t.CSV())
			fmt.Println()
		case report:
			if tb.section != "" {
				fmt.Printf("\n## %s\n\n", tb.section)
			}
			fmt.Printf("```\n%s```\n%s", t.Render(), note)
		default:
			fmt.Print(t.Render(), note)
			fmt.Println()
		}
	}
	if report {
		fmt.Printf("\nSee EXPERIMENTS.md for the per-experiment commentary and docs/MODEL.md for the model derivations.\n")
	}
}

// paperDomain is the paper's evaluation grid.
var paperDomain = grid.Sz(1024, 512, 64)

// paperTables lists the report's tables in report order, priced for
// P = 1..maxP on the paper's grid over 50 steps.
func paperTables(maxP int) []table {
	prog := &mpdata.NewProgram().Program
	sweep := perf.NewSweep(prog, paperDomain, 50, maxP)
	return []table{
		{id: 1, section: "E1 — Table 1: original and (3+1)D execution times", build: sweep.Table1WithPaper},
		{id: 2, section: "E2 — Table 2: redundant elements (mechanical)", build: func() (*perf.Table, error) {
			return perf.Table2(prog, paperDomain, maxP)
		}},
		{id: 3, section: "E3 — Table 3 / Fig. 2: the headline result", build: sweep.Table3WithPaper, note: islandsDeviation},
		{id: 4, section: "E4 — Table 4: sustained performance", build: sweep.Table4},
		{id: 5, section: "E6 — mapping variant ablation", build: sweep.VariantTable},
		{id: 7, section: "E7 — 2D island grids (§4.2 future work)", build: func() (*perf.Table, error) {
			return sweep.Islands2DTable(maxP)
		}},
		{id: 6, section: "E8 — single-socket memory traffic (§3.2)", build: func() (*perf.Table, error) {
			return perf.TrafficTable(prog)
		}},
		{id: 9, section: "E14 — weak scaling and domain sweep", build: func() (*perf.Table, error) {
			return perf.WeakScalingTable(prog, 73, grid.Sz(0, 512, 64), 50, maxP)
		}},
		{id: 10, build: func() (*perf.Table, error) {
			return perf.DomainSweepTable(prog, maxP, []int{256, 512, 1024, 2048}, grid.Sz(0, 512, 64), 50)
		}},
		{id: 8, section: "E15 — roofline", build: func() (*perf.Table, error) {
			m, err := topology.UV2000(1)
			if err != nil {
				return nil, err
			}
			return perf.RooflineTable(prog, m.Nodes[0]), nil
		}},
		{id: 11, section: "E17 — affinity on a 2-IRU cluster (§4.2)", build: func() (*perf.Table, error) {
			return perf.AffinityTable(prog, grid.Sz(512, 256, 32), 50)
		}},
		{id: 12, section: "E18 — core-time breakdown", build: func() (*perf.Table, error) {
			return perf.BreakdownTable(prog, paperDomain, min(maxP, 8), 50)
		}},
		{id: 13, section: fmt.Sprintf("E9/E13 — sub-islands and MPDATA variants at P=%d", maxP), build: func() (*perf.Table, error) {
			return variantsTable(maxP)
		}},
	}
}

// islandsDeviation is Table 3's note: how far the modeled islands row strays
// from the paper's.
func islandsDeviation(t *perf.Table) string {
	var model []float64
	for _, r := range t.Rows {
		if r.Label == "Islands of cores" {
			model = r.Values
		}
	}
	return fmt.Sprintf("Largest islands-row deviation vs paper: %.1f%%.\n", 100*perf.MaxRelErr(model, perf.PaperTable3Islands))
}

// variantsTable prices the islands strategy at P=maxP on the paper's grid for
// the paper's MPDATA, core sub-islands, and the other orders and limiters.
func variantsTable(maxP int) (*perf.Table, error) {
	m, err := topology.UV2000(maxP)
	if err != nil {
		return nil, err
	}
	t := &perf.Table{Title: "Islands variants", ColHead: "configuration", Cols: []string{"time s", "extra %", "flops/cell"}}
	for _, v := range []struct {
		name string
		opts mpdata.Options
		core bool
	}{
		{"paper (IORD=2, limited)", mpdata.DefaultOptions(), false},
		{"+ core sub-islands", mpdata.DefaultOptions(), true},
		{"IORD=2 unlimited", mpdata.Options{IORD: 2}, false},
		{"IORD=3 limited", mpdata.Options{IORD: 3, NonOscillatory: true}, false},
		{"IORD=1 (upwind)", mpdata.Options{IORD: 1}, false},
	} {
		kp, err := mpdata.NewProgramWithOptions(v.opts)
		if err != nil {
			return nil, err
		}
		r, err := exec.Model(exec.Config{
			Machine: m, Strategy: exec.IslandsOfCores,
			Placement: grid.FirstTouchParallel, Variant: decomp.VariantA,
			CoreIslands: v.core, Steps: 50,
		}, &kp.Program, paperDomain)
		if err != nil {
			return nil, err
		}
		t.AddRow(v.name, "%.2f", []float64{r.TotalTime, r.ExtraElementsPct, float64(kp.TotalFlopsPerCellStep())})
	}
	return t, nil
}
