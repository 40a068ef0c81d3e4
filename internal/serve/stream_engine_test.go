package serve

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"islands/internal/stream"
	"islands/internal/tune"
)

// streamedSpec is a streamed job the 1 MiB budget cuts into several tiles.
func streamedSpec(steps int, streamID string) Spec {
	return Spec{Grid: "128x16x16", Steps: steps, Strategy: "original", Processors: 1,
		Streamed: true, MemoryBudgetMB: 1, StreamID: streamID}
}

// runStreamed submits spec and waits for its terminal state.
func runStreamed(t *testing.T, srv *Server, spec Spec) JobStatus {
	t.Helper()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	return srv.Status(j)
}

// TestFailedScanFailsTheJob is the regression test of a streamed job that
// succeeded with zero checksums: a failed final scan must fail the job with
// its error, with no result, and discard the engine.
func TestFailedScanFailsTheJob(t *testing.T) {
	orig := scanStream
	defer func() { scanStream = orig }()
	scanStream = func(*stream.Streamer) (stream.Checksums, error) {
		return stream.Checksums{}, errors.New("injected scan failure")
	}
	srv := NewServer(Options{Slots: 1, SpillDir: t.TempDir()})
	defer srv.Close()

	st := runStreamed(t, srv, streamedSpec(2, ""))
	if st.State != StateFailed || !strings.Contains(st.Error, "injected scan failure") {
		t.Fatalf("job with a failed scan: state %s, error %q; want failed with the scan's error", st.State, st.Error)
	}
	if st.Result != nil {
		t.Fatalf("failed job carries a result: %+v", st.Result)
	}
	if ps := srv.PoolStats(); ps.Idle != 0 {
		t.Fatalf("engine of the failed job was cached: %+v", ps)
	}

	// The same key again, with a working scan: a fresh engine, real sums.
	scanStream = orig
	st = runStreamed(t, srv, streamedSpec(2, ""))
	if st.State != StateSucceeded {
		t.Fatalf("follow-up job: %s (%s)", st.State, st.Error)
	}
	if st.Result.CacheHit {
		t.Fatal("follow-up job reused the failed job's engine")
	}
	if st.Result.Checksums.Sum == 0 || st.Result.Checksums.Max == 0 {
		t.Fatalf("follow-up job has empty checksums: %+v", st.Result.Checksums)
	}
}

// TestScanIsNotTimedAsASweep runs a streamed job whose final scan is slow:
// the scan runs once, after the last sweep, so neither the streamed step
// histogram nor the job's wall time includes it.
func TestScanIsNotTimedAsASweep(t *testing.T) {
	const slow = 300 * time.Millisecond
	orig := scanStream
	defer func() { scanStream = orig }()
	scans := 0
	scanStream = func(st *stream.Streamer) (stream.Checksums, error) {
		scans++
		time.Sleep(slow)
		return orig(st)
	}
	srv := NewServer(Options{Slots: 1, SpillDir: t.TempDir()})
	defer srv.Close()

	st := runStreamed(t, srv, streamedSpec(2, ""))
	if st.State != StateSucceeded {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if scans != 1 {
		t.Fatalf("%d final scans, want 1", scans)
	}
	if st.Result.WallMs >= float64(slow.Milliseconds()) {
		t.Fatalf("wall %.1f ms includes the %v scan", st.Result.WallMs, slow)
	}
	srv.metrics.mu.Lock()
	h := srv.metrics.steps[streamStepLabel]
	srv.metrics.mu.Unlock()
	if h == nil || h.n.Load() == 0 {
		t.Fatal("no streamed step observed")
	}
	if sum := time.Duration(h.sum.Load()); sum >= slow {
		t.Fatalf("streamed step histogram sums %v, which includes the %v scan", sum, slow)
	}
}

// diskBWGauge scrapes serve_stream_disk_bw_bytes from the exposition.
func diskBWGauge(t *testing.T, srv *Server) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "serve_stream_disk_bw_bytes "); ok {
			bw, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return bw
		}
	}
	t.Fatal("no serve_stream_disk_bw_bytes sample in /metrics")
	return 0
}

// TestOnlyDurableStoresFeedTheDiskEstimate pins what the disk-bandwidth
// estimate measures: a scratch store is never synced, so its throughput is
// the page cache's and must not price residencies; a named store's is the
// device's.
func TestOnlyDurableStoresFeedTheDiskEstimate(t *testing.T) {
	srv := NewServer(Options{Slots: 1, SpillDir: t.TempDir()})
	defer srv.Close()

	for i := 0; i < 2; i++ {
		st := runStreamed(t, srv, streamedSpec(2, ""))
		if st.State != StateSucceeded {
			t.Fatalf("anonymous job: %s (%s)", st.State, st.Error)
		}
		if st.Result.Stream.DiskBWBytes <= 0 {
			t.Fatalf("anonymous job reports no store throughput: %+v", st.Result.Stream)
		}
	}
	if bw := diskBWGauge(t, srv); bw != 0 {
		t.Fatalf("serve_stream_disk_bw_bytes = %g after anonymous jobs only, want 0", bw)
	}
	if st := runStreamed(t, srv, streamedSpec(2, "durable")); st.State != StateSucceeded {
		t.Fatalf("named job: %s (%s)", st.State, st.Error)
	}
	if bw := diskBWGauge(t, srv); bw <= 0 {
		t.Fatalf("serve_stream_disk_bw_bytes = %g after a named job, want > 0", bw)
	}
}

// TestCompletedStoreResubmitKeepsItsChecksums resubmits a named job whose
// store already holds every sweep: no sweep runs, yet the job still scans the
// final field, and the result must carry the first run's checksums.
func TestCompletedStoreResubmitKeepsItsChecksums(t *testing.T) {
	srv := NewServer(Options{Slots: 1, SpillDir: t.TempDir()})
	defer srv.Close()
	spec := streamedSpec(2, "done")
	first := runStreamed(t, srv, spec)
	if first.State != StateSucceeded {
		t.Fatalf("first job: %s (%s)", first.State, first.Error)
	}
	orig := scanStream
	defer func() { scanStream = orig }()
	scans := 0
	scanStream = func(st *stream.Streamer) (stream.Checksums, error) {
		scans++
		return orig(st)
	}
	again := runStreamed(t, srv, spec)
	if scans != 1 {
		t.Fatalf("%d final scans of the complete store, want 1", scans)
	}
	if again.State != StateSucceeded {
		t.Fatalf("resubmitted job: %s (%s)", again.State, again.Error)
	}
	if again.Result.Stream.TilesDone != 0 {
		t.Fatalf("resubmitted job recomputed %d tiles of a complete store", again.Result.Stream.TilesDone)
	}
	if again.Result.Checksums != first.Result.Checksums {
		t.Fatalf("resubmitted checksums %+v, want the first run's %+v", again.Result.Checksums, first.Result.Checksums)
	}
}

// TestResumedStoreKeepsToItsBudget is the regression test of a named store
// that resumed under a budget smaller than its recorded residency needs: the
// residency cannot change mid-run, so the job must fail with a diagnostic that
// names the residency, its MiB and the budget, and leave the store to a job
// under a budget that holds it — which resumes it to the checksums of an
// uninterrupted run.
func TestResumedStoreKeepsToItsBudget(t *testing.T) {
	spill := t.TempDir()
	srv := NewServer(Options{Slots: 1, SpillDir: spill})
	defer srv.Close()
	spec := streamedSpec(9, "budget")
	spec.MemoryBudgetMB = 4
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}

	// The store one sweep in, as a job killed after its first sweep leaves it.
	st, picked, err := OpenStream(ns, stream.Options{Dir: filepath.Join(spill, "stream-"+spec.StreamID), Resume: true}, ns.MemoryBudgetMB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if picked == nil || picked.Resident || st.Plan().Sweeps < 2 {
		t.Fatalf("4 MiB pick %+v: want a residency of several sweeps", picked)
	}
	if err := st.RunSweep(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	cfg, err := ns.ExecConfig()
	if err != nil {
		t.Fatal(err)
	}
	_, prog, err := ns.program()
	if err != nil {
		t.Fatal(err)
	}
	need, err := tune.ResidentBytes(cfg.Machine, &prog.Program, ClassOf(ns), tune.KnobsOf(cfg, ns.Domain), picked.TilePlanes, picked.K)
	if err != nil {
		t.Fatal(err)
	}
	if need <= 1<<20 {
		t.Fatalf("%s needs %.0f bytes: it fits the 1 MiB budget, so the test checks nothing", picked.Label, need)
	}

	spec.MemoryBudgetMB = 1
	small := runStreamed(t, srv, spec)
	residency := fmt.Sprintf("w%dk%d", picked.TilePlanes, picked.K)
	if small.State != StateFailed {
		t.Fatalf("resumed %s under 1 MiB: %s, want failed", residency, small.State)
	}
	for _, want := range []string{residency, fmt.Sprintf("%.1f MiB", need/(1<<20)), "1 MiB budget"} {
		if !strings.Contains(small.Error, want) {
			t.Errorf("diagnostic %q does not name %q", small.Error, want)
		}
	}

	spec.MemoryBudgetMB = 4
	resumed := runStreamed(t, srv, spec)
	if resumed.State != StateSucceeded {
		t.Fatalf("resumed under 4 MiB: %s (%s)", resumed.State, resumed.Error)
	}
	if rep := resumed.Result.Stream; rep.ResumedSteps == 0 || rep.Residency != "checkpointed "+residency {
		t.Fatalf("resumed job report %+v: want %s resumed past its first sweep", rep, residency)
	}
	spec.StreamID = ""
	whole := runStreamed(t, srv, spec)
	if whole.State != StateSucceeded {
		t.Fatalf("uninterrupted job: %s (%s)", whole.State, whole.Error)
	}
	if resumed.Result.Checksums != whole.Result.Checksums {
		t.Fatalf("resumed checksums %+v, uninterrupted %+v", resumed.Result.Checksums, whole.Result.Checksums)
	}
}
