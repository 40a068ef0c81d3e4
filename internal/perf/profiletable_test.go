package perf

import (
	"strings"
	"testing"
	"time"

	"islands/internal/exec"
)

func sampleProfile() *exec.Profile {
	return &exec.Profile{
		Steps:   4,
		Wall:    40 * time.Millisecond,
		Workers: 16,
		Phases: []exec.PhaseProfile{
			{Label: "f1+f2+f3", Group: 0, Compute: 300 * time.Millisecond,
				Spin: 20 * time.Millisecond, Park: 60 * time.Millisecond},
			{Label: "psiNew", Group: 1, Compute: 100 * time.Millisecond,
				Spin: 10 * time.Millisecond, Park: 10 * time.Millisecond},
			{Label: "global-join", Group: -1,
				Spin: 5 * time.Millisecond, Park: 15 * time.Millisecond},
		},
		Islands: []exec.IslandProfile{
			{Team: 0, Workers: 8, Compute: 250 * time.Millisecond,
				Spin: 20 * time.Millisecond, Park: 40 * time.Millisecond,
				MinWorker: 25 * time.Millisecond, MaxWorker: 50 * time.Millisecond},
			{Team: 1, Workers: 8, Compute: 150 * time.Millisecond,
				Spin: 15 * time.Millisecond, Park: 45 * time.Millisecond,
				MinWorker: 15 * time.Millisecond, MaxWorker: 30 * time.Millisecond},
		},
	}
}

func TestProfileTable(t *testing.T) {
	tbl := ProfileTable("islands-of-cores", sampleProfile())
	out := tbl.Render()
	for _, want := range []string{"f1+f2+f3", "psiNew", "global-join", "total",
		"compute ms", "spin ms", "park ms", "wait %", "share %"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Total row: compute 400ms, spin 35ms, park 85ms, wait 120/520, share 100.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Label != "total" {
		t.Fatalf("last row = %q, want total", last.Label)
	}
	wantVals := []float64{400, 35, 85, 100 * 120.0 / 520.0, 100}
	for i, want := range wantVals {
		if got := last.Values[i]; got < want-0.01 || got > want+0.01 {
			t.Fatalf("total[%d] = %v, want %v", i, got, want)
		}
	}
	// Share percentages over the phase rows sum to 100.
	var share float64
	for _, r := range tbl.Rows[:len(tbl.Rows)-1] {
		share += r.Values[4]
	}
	if share < 99.9 || share > 100.1 {
		t.Fatalf("phase shares sum to %v, want 100", share)
	}
}

func TestIslandTable(t *testing.T) {
	tbl := IslandTable("islands-of-cores", sampleProfile())
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	r0 := tbl.Rows[0]
	if r0.Label != "team 0" {
		t.Fatalf("row 0 = %q, want team 0", r0.Label)
	}
	// workers, compute, wait, min, max, imbalance
	want := []float64{8, 250, 60, 25, 50, 50}
	for i, w := range want {
		if got := r0.Values[i]; got < w-0.01 || got > w+0.01 {
			t.Fatalf("team0[%d] = %v, want %v", i, got, w)
		}
	}
	if !strings.Contains(tbl.Render(), "imbalance %") {
		t.Fatal("missing imbalance column")
	}
}

func TestProfileVsModelTable(t *testing.T) {
	// Model tags: 60 compute, 10 halo, 10 fill, 20 barrier -> work 80 / barrier 20.
	tags := map[string]float64{
		"stage":     60,
		"halo pull": 10,
		"fill":      10,
		"barrier":   20,
	}
	// 16 workers on 12 cores for 40 ms of wall: 480 ms of core time, 400 of
	// them in kernels. The 16 goroutines account 520 ms, 120 of them waiting.
	tbl := profileVsModelTable("islands-of-cores", sampleProfile(), tags, 12)
	if len(tbl.Rows) != 2 || tbl.Rows[0].Label != "work" || tbl.Rows[1].Label != "idle/wait" {
		t.Fatalf("rows = %+v, want work and idle/wait", tbl.Rows)
	}
	if got := strings.Join(tbl.Cols, "|"); got != "measured|model|of goroutine time" {
		t.Fatalf("columns = %s", got)
	}
	if !strings.Contains(tbl.Title, "on 12 cores") {
		t.Fatalf("title %q does not name the cores the shares are of", tbl.Title)
	}
	near := func(what string, got, want float64) {
		t.Helper()
		if got < want-0.05 || got > want+0.05 {
			t.Fatalf("%s = %v, want ~%v", what, got, want)
		}
	}
	work, idle := tbl.Rows[0], tbl.Rows[1]
	near("measured work", work.Values[0], 100*400.0/480.0)
	near("measured idle/wait", idle.Values[0], 100*80.0/480.0)
	near("model work", work.Values[1], 80)
	near("model barrier", idle.Values[1], 20)
	near("work of goroutine time", work.Values[2], 100*400.0/520.0)
	near("wait of goroutine time", idle.Values[2], 100*120.0/520.0)

	// The reading this table used to give: 16 goroutines on 2 cores, the
	// cores busy throughout, is work 100 % — not the 10 % the goroutines'
	// own time says.
	p := sampleProfile()
	p.Wall = 200 * time.Millisecond
	p.Phases[2].Park = 2800 * time.Millisecond
	oversubscribed := profileVsModelTable("islands-of-cores", p, tags, 2)
	near("oversubscribed work", oversubscribed.Rows[0].Values[0], 100)
	near("oversubscribed work of goroutine time", oversubscribed.Rows[0].Values[2], 100*400.0/3305.0)

	// Fewer workers than cores: the run never had more cores than workers.
	p.Workers = 1
	if one := profileVsModelTable("original", p, tags, 8); !strings.Contains(one.Title, "on 1 cores") {
		t.Fatalf("title %q, want the single worker's one core", one.Title)
	}
}
