package perf

import (
	"math"
	"strings"
	"testing"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
)

// smallSweep prices a scaled-down domain so unit tests stay fast; shape
// assertions at paper scale live in internal/exec's model tests and in the
// root benchmarks.
func smallSweep(maxP int) *Sweep {
	prog := &mpdata.NewProgram().Program
	return NewSweep(prog, grid.Sz(256, 128, 16), 5, maxP)
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "T", ColHead: "P", Cols: []string{"1", "2"}}
	tab.AddRow("row", "%.1f", []float64{1.25, 2.5})
	out := tab.Render()
	for _, want := range []string{"T\n", "P", "row", "1.2", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSweepMemoizes(t *testing.T) {
	s := smallSweep(2)
	a, err := s.Get(2, exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(2, exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantA)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sweep must memoize identical configurations")
	}
	c, err := s.Get(2, exec.IslandsOfCores, grid.FirstTouchParallel, decomp.VariantB)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different variants must not share a cache entry")
	}
}

func TestTable1Structure(t *testing.T) {
	s := smallSweep(3)
	tab, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Cols) != 3 {
		t.Fatalf("table 1 shape wrong: %d rows, %d cols", len(tab.Rows), len(tab.Cols))
	}
	for _, r := range tab.Rows {
		if len(r.Values) != 3 {
			t.Fatalf("row %q has %d values", r.Label, len(r.Values))
		}
		for _, v := range r.Values {
			if v <= 0 {
				t.Fatalf("row %q has non-positive time %v", r.Label, v)
			}
		}
	}
}

func TestTable2Properties(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	tab, err := Table2(prog, grid.Sz(256, 128, 16), 6)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := tab.Rows[0].Values, tab.Rows[1].Values
	if va[0] != 0 || vb[0] != 0 {
		t.Fatal("one island has no redundancy")
	}
	for p := 1; p < 6; p++ {
		if va[p] <= va[p-1] {
			t.Fatalf("variant A must grow with islands: %v", va)
		}
		if vb[p] <= 1.5*va[p] {
			t.Fatalf("variant B (%.3f) should cost ~2x variant A (%.3f) on a 2:1 grid", vb[p], va[p])
		}
	}
}

func TestTable3SpeedupsConsistent(t *testing.T) {
	s := smallSweep(4)
	tab, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	orig, blocked, isl := tab.Rows[0].Values, tab.Rows[1].Values, tab.Rows[2].Values
	spr, sov := tab.Rows[3].Values, tab.Rows[4].Values
	for i := range orig {
		if got := blocked[i] / isl[i]; math.Abs(got-spr[i]) > 1e-9 {
			t.Fatalf("S_pr[%d] inconsistent", i)
		}
		if got := orig[i] / isl[i]; math.Abs(got-sov[i]) > 1e-9 {
			t.Fatalf("S_ov[%d] inconsistent", i)
		}
	}
	// Islands never lose to pure (3+1)D.
	for i := range isl {
		if isl[i] > blocked[i] {
			t.Fatalf("islands slower than (3+1)D at P=%d", i+1)
		}
	}
}

func TestTable4Consistency(t *testing.T) {
	s := smallSweep(4)
	tab, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	theo, sustained, util, eff := tab.Rows[0].Values, tab.Rows[1].Values, tab.Rows[2].Values, tab.Rows[3].Values
	for i := range theo {
		if theo[i] != 105.6*float64(i+1) {
			t.Fatalf("theoretical peak wrong at P=%d: %v", i+1, theo[i])
		}
		if wantUtil := 100 * sustained[i] / theo[i]; math.Abs(util[i]-wantUtil) > 1e-9 {
			t.Fatalf("utilization inconsistent at P=%d", i+1)
		}
		if util[i] <= 0 || util[i] > 100 {
			t.Fatalf("utilization out of range at P=%d: %v", i+1, util[i])
		}
		if eff[i] <= 0 || eff[i] > 100.0001 {
			t.Fatalf("efficiency out of range at P=%d: %v", i+1, eff[i])
		}
	}
	if eff[0] != 100 {
		t.Fatalf("efficiency at P=1 must be 100, got %v", eff[0])
	}
}

func TestVariantTableAWins(t *testing.T) {
	s := smallSweep(4)
	tab, err := s.VariantTable()
	if err != nil {
		t.Fatal(err)
	}
	va, vb := tab.Rows[0].Values, tab.Rows[1].Values
	// The paper: variant A gives better results for all benchmarks
	// (fewer redundant elements). With equal i/j halos the difference is
	// small; A must never be meaningfully worse.
	for i := range va {
		if va[i] > vb[i]*1.001 {
			t.Fatalf("variant A (%v) worse than B (%v) at P=%d", va[i], vb[i], i+1)
		}
	}
}

func TestTrafficTable(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	tab, err := TrafficTable(prog)
	if err != nil {
		t.Fatal(err)
	}
	gbOrig := tab.Rows[0].Values[0]
	gbBlocked := tab.Rows[1].Values[0]
	speedup := tab.Rows[2].Values[1]
	if math.Abs(gbOrig-134.2) > 1.5 {
		t.Fatalf("original traffic %.1f GB, want ~134 (paper 133)", gbOrig)
	}
	if math.Abs(gbBlocked-30.2) > 1 {
		t.Fatalf("(3+1)D traffic %.1f GB, want ~30", gbBlocked)
	}
	// Paper: computations accelerated about 2.8x on one socket.
	if speedup < 2.5 || speedup > 3.8 {
		t.Fatalf("single-socket (3+1)D speedup %.2f, want 2.5-3.8 (paper 2.8 on E5-2660v2)", speedup)
	}
}

func TestSpeedups(t *testing.T) {
	got := Speedups([]float64{10, 9}, []float64{2, 3})
	if got[0] != 5 || got[1] != 3 {
		t.Fatalf("Speedups = %v", got)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", ColHead: "P", Cols: []string{"1", "2"}}
	tab.AddRow("a,b", "%.1f", []float64{1.25, 2.5})
	out := tab.CSV()
	want := "P,1,2\n\"a,b\",1.25,2.5\n"
	if out != want {
		t.Fatalf("CSV = %q, want %q", out, want)
	}
}

func TestPaperDataShapes(t *testing.T) {
	for name, v := range map[string][]float64{
		"t1-serial": PaperTable1OriginalSerial,
		"t1-ft":     PaperTable1OriginalFT,
		"t1-31d":    PaperTable1Plus31D,
		"t2-a":      PaperTable2VariantA,
		"t2-b":      PaperTable2VariantB,
		"t3-isl":    PaperTable3Islands,
		"t3-spr":    PaperTable3Spr,
		"t3-sov":    PaperTable3Sov,
		"t4-sus":    PaperTable4Sustained,
		"t4-util":   PaperTable4Utilization,
	} {
		if len(v) != 14 {
			t.Errorf("%s has %d entries, want 14", name, len(v))
		}
	}
	// Spot-check transcription against the paper's headline cells.
	if PaperTable3Islands[13] != 1.01 || PaperTable3Spr[13] != 10.30 {
		t.Fatal("paper headline values mistranscribed")
	}
}

func TestTablesWithPaperRows(t *testing.T) {
	s := smallSweep(3)
	t1, err := s.Table1WithPaper()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 6 {
		t.Fatalf("table 1 with paper has %d rows, want 6", len(t1.Rows))
	}
	for _, r := range t1.Rows {
		if len(r.Values) != 3 {
			t.Fatalf("row %q has %d values", r.Label, len(r.Values))
		}
	}
	t3, err := s.Table3WithPaper()
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 8 {
		t.Fatalf("table 3 with paper has %d rows, want 8", len(t3.Rows))
	}
}

func TestMaxRelErr(t *testing.T) {
	if got := MaxRelErr([]float64{10, 22}, []float64{10, 20}); got != 0.1 {
		t.Fatalf("MaxRelErr = %v, want 0.1", got)
	}
	if got := MaxRelErr([]float64{5}, []float64{0, 7}); got != 0 {
		t.Fatalf("zero paper entries must be skipped, got %v", got)
	}
}
