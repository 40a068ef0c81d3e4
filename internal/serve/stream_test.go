package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"islands/internal/serve"
)

// postSpec submits a spec over HTTP and returns the response code and body.
func postSpec(t *testing.T, url string, spec serve.Spec) (int, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestGridTooLargeWireContract pins the 413 path: a resident job over
// MaxGridCells is rejected with a hint naming the streamed job class, and a
// grid no class accepts is rejected outright.
func TestGridTooLargeWireContract(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, SpillDir: t.TempDir()})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// 2048*2048*1024 = 2^32 cells: over the resident 2^31, under the
	// streamed 2^40.
	code, body := postSpec(t, hs.URL, serve.Spec{Grid: "2048x2048x1024", Steps: 1})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("resident over-limit grid: got %d, want 413 (body %s)", code, body)
	}
	if !strings.Contains(body, `\"streamed\": true`) && !strings.Contains(body, `"streamed": true`) {
		t.Fatalf("413 body does not name the streamed job class: %s", body)
	}

	// 2^41 cells: over even the streamed bound.
	code, body = postSpec(t, hs.URL, serve.Spec{Grid: "2097152x1048576x1", Steps: 1, Streamed: true})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("streamed over-limit grid: got %d, want 413 (body %s)", code, body)
	}
	if !strings.Contains(body, "streamed limit") {
		t.Fatalf("streamed 413 body does not name its limit: %s", body)
	}

	// Spec contradictions are 400s, not 413s.
	for _, spec := range []serve.Spec{
		{Grid: "32x16x8", Steps: 4, Streamed: true, KSteps: 2},
		{Grid: "32x16x8", Steps: 4, MemoryBudgetMB: 64},
		{Grid: "32x16x8", Steps: 4, StreamID: "x"},
		{Grid: "32x16x8", Steps: 4, Streamed: true, StreamID: "../escape"},
	} {
		if code, body := postSpec(t, hs.URL, spec); code != http.StatusBadRequest {
			t.Fatalf("spec %+v: got %d, want 400 (body %s)", spec, code, body)
		}
	}
}

// streamTestSpec is a domain that comfortably exceeds a 1 MiB budget (the
// residency picker must cut at least 4 tiles) yet runs quickly resident.
func streamTestSpec(steps int) serve.Spec {
	return serve.Spec{Grid: "128x16x16", Steps: steps, Strategy: "original", Processors: 1}
}

// TestStreamedJobMatchesResident runs the same spec resident and streamed
// under a 1 MiB budget and requires bit-identical checksums plus a populated
// stream report — the serving-layer face of the streamed-vs-resident
// identity property.
func TestStreamedJobMatchesResident(t *testing.T) {
	spill := t.TempDir()
	srv := serve.NewServer(serve.Options{Slots: 1, SpillDir: spill})
	defer srv.Close()

	resident, err := srv.Submit(streamTestSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, resident); st != serve.StateSucceeded {
		t.Fatalf("resident job: %s (%s)", st, srv.Status(resident).Error)
	}

	spec := streamTestSpec(4)
	spec.Streamed = true
	spec.MemoryBudgetMB = 1
	streamed, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, streamed); st != serve.StateSucceeded {
		t.Fatalf("streamed job: %s (%s)", st, srv.Status(streamed).Error)
	}

	rr, sr := srv.Status(resident).Result, srv.Status(streamed).Result
	if rr == nil || sr == nil {
		t.Fatalf("missing results: resident %v streamed %v", rr, sr)
	}
	if rr.Checksums != sr.Checksums {
		t.Fatalf("streamed checksums diverge from resident:\n  resident %+v\n  streamed %+v", rr.Checksums, sr.Checksums)
	}
	rep := sr.Stream
	if rep == nil {
		t.Fatal("streamed result has no stream report")
	}
	if rep.Tiles < 4 {
		t.Fatalf("1 MiB budget cut only %d tiles (report %+v)", rep.Tiles, rep)
	}
	if rep.BytesRead <= 0 || rep.BytesWritten <= 0 || rep.TilesDone <= 0 {
		t.Fatalf("stream report missing traffic accounting: %+v", rep)
	}
	if rep.OverlapEfficiency < 0 || rep.OverlapEfficiency > 1 {
		t.Fatalf("overlap efficiency %v out of [0,1]", rep.OverlapEfficiency)
	}
	if sr.KSteps != rep.K {
		t.Fatalf("result ksteps %d does not echo the residency k %d", sr.KSteps, rep.K)
	}
	if rr.Stream != nil {
		t.Fatalf("resident result carries a stream report: %+v", rr.Stream)
	}
	if got := srv.Metrics().StreamJobs.Load(); got != 1 {
		t.Fatalf("StreamJobs = %d, want 1", got)
	}
	if got := srv.Metrics().StreamTiles.Load(); got < 4 {
		t.Fatalf("StreamTiles = %d, want >= 4", got)
	}
	if bw := srv.Stats(); bw.Running != 0 { // sanity: nothing stuck
		t.Fatalf("jobs still running: %+v", bw)
	}

	// Anonymous stores are removed when the job's engine closes.
	entries, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "job-") {
			t.Fatalf("anonymous spill store %s not removed", e.Name())
		}
	}
}

// TestStreamedResumeAfterCancel kills a named streamed job mid-run and
// resubmits it: the second job resumes the store's checkpoint and lands on
// exactly the checksums of an uninterrupted run.
func TestStreamedResumeAfterCancel(t *testing.T) {
	spill := t.TempDir()
	srv := serve.NewServer(serve.Options{Slots: 1, SpillDir: spill})
	defer srv.Close()

	// The uninterrupted baseline, under its own store.
	base := streamTestSpec(6)
	base.Streamed = true
	base.MemoryBudgetMB = 1
	base.StreamID = "baseline"
	bj, err := srv.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, bj); st != serve.StateSucceeded {
		t.Fatalf("baseline job: %s (%s)", st, srv.Status(bj).Error)
	}
	want := srv.Status(bj).Result.Checksums

	// The victim: cancel once at least one tile residency committed.
	spec := base
	spec.StreamID = "victim"
	tilesBefore := srv.Metrics().StreamTiles.Load()
	j1, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.Metrics().StreamTiles.Load() == tilesBefore && !j1.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("no tile completed before the cancel deadline")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Cancel(j1, "test kill")
	st1 := waitTerminal(t, j1)

	// Resubmit under the same stream_id: the job resumes the checkpoint
	// (or, if the cancel raced completion, replays a done store) and must
	// land on the baseline checksums.
	j2, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st != serve.StateSucceeded {
		t.Fatalf("resumed job: %s (%s) after victim ended %s", st, srv.Status(j2).Error, st1)
	}
	res := srv.Status(j2).Result
	if res.Checksums != want {
		t.Fatalf("resumed checksums diverge from uninterrupted run:\n  want %+v\n  got  %+v", want, res.Checksums)
	}
	if res.Stream == nil || res.Stream.StoreDir == "" {
		t.Fatalf("named streamed job missing store dir in report: %+v", res.Stream)
	}
	if st1 == serve.StateCanceled && res.Stream.ResumedSteps == 0 && res.Stream.TilesDone == 0 {
		t.Fatalf("resumed job did no work and resumed no steps: %+v", res.Stream)
	}
}

// spillMappings counts this process's live memory mappings of files under
// dir (-1 where /proc/self/maps does not exist).
func spillMappings(dir string) int {
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), dir)
}

// TestStreamedJobsReleaseTheirStores is the regression test of a leak: the
// streamed engine's Close deleted an anonymous store without closing its
// streamer first, so every streamed job left its two plane-file mappings,
// their descriptors and its tile engines' worker goroutines behind. After N
// anonymous streamed jobs the process must be back at its baseline.
func TestStreamedJobsReleaseTheirStores(t *testing.T) {
	spill := t.TempDir()
	srv := serve.NewServer(serve.Options{Slots: 1, SpillDir: spill})
	defer srv.Close()
	spec := streamTestSpec(2)
	spec.Streamed = true
	spec.MemoryBudgetMB = 1

	run := func() {
		t.Helper()
		j, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != serve.StateSucceeded {
			t.Fatalf("streamed job: %s (%s)", st, srv.Status(j).Error)
		}
	}
	baseGoroutines, baseMappings := runtime.NumGoroutine(), spillMappings(spill)
	for i := 0; i < 5; i++ {
		run()
	}

	// The engine is closed before its job turns terminal; its workers may
	// take a moment longer to return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("goroutines: %d before the streamed jobs, %d after — tile-engine workers leaked", baseGoroutines, n)
	}
	if n := spillMappings(spill); n > baseMappings {
		t.Errorf("plane-file mappings under %s: %d before the streamed jobs, %d after — stores not closed", spill, baseMappings, n)
	}
	if entries, err := os.ReadDir(spill); err != nil || len(entries) != 0 {
		t.Errorf("spill root after the jobs: %v (err %v), want empty", entries, err)
	}
}
