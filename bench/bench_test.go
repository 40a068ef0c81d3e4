package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"islands/internal/serve"
)

func TestJobListFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.jobList(7), w.jobList(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different job lists", w.name)
		}
		if len(w.classes) > 1 && reflect.DeepEqual(a, w.jobList(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", w.name)
		}
	}
	serveMix, fleetMix := workloadByName("serve-mix").jobList(3), workloadByName("fleet-mix").jobList(3)
	if !reflect.DeepEqual(serveMix[:len(fleetMix)], fleetMix) {
		t.Error("fleet-mix does not draw the first jobs of serve-mix's list")
	}
}

func TestPercentile(t *testing.T) {
	var vs []float64
	for i := 200; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.50, 100, 100}, {0.95, 190, 10}, {1, 200, 0}} {
		got, beyond := percentile(vs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(1..200, %v) = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, n)
	}
}

// TestSelfTime builds one job by hand: a 100 ms job whose submit (10 ms)
// holds a replica handler (4 ms), whose wait (80 ms) holds nothing, and
// whose two overlapping engine spans cover 30 ms of the job between them.
func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "job", Job: 0, Parent: -1, Start: at(0), End: at(100)},
		{Name: "client.submit", Job: 0, Parent: -1, Start: at(0), End: at(10)},
		{Name: "client.wait", Job: 0, Parent: -1, Start: at(15), End: at(95)},
		{Name: "replica.submit", Job: 0, Parent: -1, Start: at(3), End: at(7)},
		{Name: "engine.reset", Job: 0, Parent: -1, Start: at(20), End: at(40)},
		{Name: "engine.step", Job: 0, Parent: -1, Start: at(30), End: at(50)},
		{Name: "engine.step", Job: -1, Parent: -1, Start: at(200), End: at(210)}, // set-up work: no job
	}
	linkSpans(spans)
	wantParent := []int{-1, 0, 0, 1, 2, 2, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.Name, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	want := []time.Duration{at(10), at(6), at(50), at(4), at(20), at(20), at(10)}
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self time %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) < len(spans) {
		t.Errorf("trace file does not load: %v (%d events)", err, len(doc.TraceEvents))
	}
}

func TestKendallTau(t *testing.T) {
	if got := kendallTau([]float64{1, 2, 3, 4}, []float64{10, 20, 30, 40}); got != 1 {
		t.Errorf("same order: tau %v", got)
	}
	if got := kendallTau([]float64{1, 2, 3, 4}, []float64{4, 3, 2, 1}); got != -1 {
		t.Errorf("reversed: tau %v", got)
	}
}

func tinyWorkload() *workload {
	s := serve.Spec{Grid: "24x16x4", Steps: 2, Processors: 2}
	return &workload{
		name: "tiny", clients: 1, listLen: 4, warmup: 1, jobs: sweepJobs,
		classes: []class{newClass("tiny-islands", "islands", s)},
	}
}

// TestCorruptedChecksumFails flips one bit of an expected sum after set-up:
// every job must then count as failed and the run as incorrect.
func TestCorruptedChecksumFails(t *testing.T) {
	w := tinyWorkload()
	e, err := setUp(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	if res := tally(w, runLoop(e, w.jobList(1), 1, 0, 3, nil)); !res.Correct || res.Failed != 0 || res.Attempted != 3 {
		t.Fatalf("clean run: %+v", res)
	}
	for k, s := range e.refs.want {
		s.sum = math.Float64frombits(math.Float64bits(s.sum) ^ 1)
		e.refs.want[k] = s
	}
	if res := tally(w, runLoop(e, w.jobList(1), 1, 0, 3, nil)); res.Correct || res.Failed != 3 {
		t.Errorf("corrupted reference: %+v, want 3 of 3 failed", res)
	}
}

// TestQuickPass runs all four workloads the way -quick does and checks that
// nothing fails and every declared metric is reported.
func TestQuickPass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a second")
	}
	o := options{seconds: defaultSeconds, quick: true}
	seconds, reps := o.effective()
	for _, w := range workloads {
		tm, err := timedRun(w, 1, seconds, reps, windows)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name+" timed", &tm.res, endToEnd)
		for _, d := range endToEnd {
			if tm.res.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v; it must never be 0", w.name, d.name, tm.res.Metrics[d.name].Value)
			}
		}
		res, err := tracedRun(w, 1, seconds, "", false)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkResult(t, w.name+" traced", res, perLayer)
	}
}

func checkResult(t *testing.T, what string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d of %d failed", what, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", what, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("%s: metric %s missing or in unit %q, want %q", what, d.name, v.Unit, d.unit)
		}
	}
}

// TestBenchmarkJSONAgrees keeps BENCHMARK.json at the root of the repository
// and the tables in this package from drifting apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the program's default is %v", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(what string, js []jsonMetric, defs []metricDef) {
		if len(js) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d defined", what, len(js), len(defs))
			return
		}
		for i, d := range defs {
			if got := (metricDef{js[i].Name, js[i].Unit, js[i].Better, js[i].Bound}); got != d {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", what, i, got, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
