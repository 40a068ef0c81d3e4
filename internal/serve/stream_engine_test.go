package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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
	dir := filepath.Join(spill, "stream-"+spec.StreamID)
	st, picked, err := OpenStream(ns, stream.Options{Dir: dir, Resume: true}, ns.MemoryBudgetMB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if picked == nil || picked.Resident || st.Plan().Sweeps < 2 {
		t.Fatalf("4 MiB pick %+v: want a residency of several sweeps", picked)
	}
	if err := st.RunSweep(); err != nil {
		t.Fatal(err)
	}
	// While the store is held, a second opener fails on its lock before it
	// reads the checkpoint and prices that residency against its budget.
	if _, _, err := OpenStream(ns, stream.Options{Dir: dir, Resume: true}, 1, 0); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("is held by pid %d", os.Getpid())) {
		t.Fatalf("opening the held store under 1 MiB: %v, want a failure naming the holder's pid", err)
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
	need, err := tune.ResidentBytes(cfg.Machine, &prog.Program, ClassOf(ns), tune.KnobsOf(cfg, ns.Domain), ns.Steps, picked.TilePlanes, picked.K)
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

// tileSpy is a streamed engine whose tile-progress sink calls onTile first,
// from the sweep's own goroutine while the job runs.
type tileSpy struct {
	StreamEngine
	onTile func(TileProgress)
}

func (e *tileSpy) SetProgress(f func(TileProgress)) {
	e.StreamEngine.SetProgress(func(p TileProgress) {
		e.onTile(p)
		f(p)
	})
}

// spiedServer is a one-slot server whose streamed engines are tile spies.
func spiedServer(t *testing.T, spill string, onTile func(TileProgress)) *Server {
	t.Helper()
	var srv *Server
	srv = NewServer(Options{Slots: 1, SpillDir: spill, EngineFactory: func(ns NormSpec) (Engine, error) {
		if !ns.Streamed {
			return NewSolverEngine(ns)
		}
		e, err := newStreamEngine(srv, ns)
		if err != nil {
			return nil, err
		}
		return &tileSpy{StreamEngine: e.(StreamEngine), onTile: onTile}, nil
	}})
	return srv
}

// TestStreamedJobHasNoDirectoryWhileItRuns: an anonymous store's directory
// is removed as soon as the store is open, so the spill root holds no job-*
// entry while a job runs, on a fresh engine or a cached one.
func TestStreamedJobHasNoDirectoryWhileItRuns(t *testing.T) {
	spill := t.TempDir()
	var tiles atomic.Int64
	var mu sync.Mutex
	var seen []string
	srv := spiedServer(t, spill, func(TileProgress) {
		tiles.Add(1)
		entries, err := os.ReadDir(spill)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			seen = append(seen, err.Error())
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "job-") && !slices.Contains(seen, e.Name()) {
				seen = append(seen, e.Name())
			}
		}
	})
	defer srv.Close()
	for n := 0; n < 2; n++ {
		if st := runStreamed(t, srv, streamedSpec(4, "")); st.State != StateSucceeded {
			t.Fatalf("job %d: %s (%s)", n, st.State, st.Error)
		}
	}
	if tiles.Load() == 0 {
		t.Fatal("no tile progress reached the spy")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 0 {
		t.Fatalf("the spill root held %v while a job ran", seen)
	}
}

// TestDiscardedStreamedEnginesAreNotReused: a canceled or failed job that
// leased a cached streamed engine discards it, so the next job of the class
// misses the cache and builds a fresh one.
func TestDiscardedStreamedEnginesAreNotReused(t *testing.T) {
	var cancelRunning atomic.Bool
	var srv *Server
	srv = spiedServer(t, t.TempDir(), func(TileProgress) {
		if !cancelRunning.Swap(false) {
			return
		}
		for _, j := range srv.front.unfinished() {
			if j.State() == StateRunning {
				srv.Cancel(j, "test cancel")
			}
		}
	})
	defer srv.Close()
	spec := streamedSpec(4, "")
	cached := func(what string) {
		t.Helper()
		st := runStreamed(t, srv, spec)
		if st.State != StateSucceeded {
			t.Fatalf("%s: %s (%s)", what, st.State, st.Error)
		}
		if st.Result.CacheHit {
			t.Fatalf("%s leased a discarded engine", what)
		}
		if ps := srv.PoolStats(); ps.Idle != 1 {
			t.Fatalf("after %s: %d idle engines, want its engine cached", what, ps.Idle)
		}
	}

	cached("the first job")
	cancelRunning.Store(true)
	if st := runStreamed(t, srv, spec); st.State != StateCanceled {
		t.Fatalf("job canceled on its first tile: %s (%s)", st.State, st.Error)
	}
	if ps := srv.PoolStats(); ps.Idle != 0 {
		t.Fatalf("the canceled job's engine was cached: %+v", ps)
	}
	cached("the job after the canceled one")

	orig := scanStream
	defer func() { scanStream = orig }()
	scanStream = func(*stream.Streamer) (stream.Checksums, error) {
		return stream.Checksums{}, errors.New("injected scan failure")
	}
	if st := runStreamed(t, srv, spec); st.State != StateFailed {
		t.Fatalf("job with a failed scan: %s", st.State)
	}
	scanStream = orig
	if ps := srv.PoolStats(); ps.Idle != 0 {
		t.Fatalf("the failed job's engine was cached: %+v", ps)
	}
	cached("the job after the failed one")
}

// TestOneLiveJobPerStreamID is the regression test of two live jobs sharing
// one named store: on a two-slot server both opened it at once, and one
// truncated planes the other had mapped. Of two concurrent submissions of one
// stream_id, one runs — bit-identical to an uninterrupted run — and the other
// is refused with 409 naming the holder. Once the holder finishes, the
// stream_id is free again and a resubmission returns the stored checksums.
func TestOneLiveJobPerStreamID(t *testing.T) {
	srv := NewServer(Options{Slots: 2, SpillDir: t.TempDir()})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// The first scan waits for the test, so the holder stays live however
	// fast it runs.
	orig := scanStream
	defer func() { scanStream = orig }()
	held := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(held) }) }
	defer release()
	var scans atomic.Int64
	scanStream = func(st *stream.Streamer) (stream.Checksums, error) {
		if scans.Add(1) == 1 {
			<-held
		}
		return orig(st)
	}

	spec := streamedSpec(6, "shared")
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		code int
		body []byte
	}
	answers := make([]answer, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			answers[i] = answer{resp.StatusCode, buf.Bytes()}
		}(i)
	}
	close(start)
	wg.Wait()
	if answers[0].code != http.StatusAccepted {
		answers[0], answers[1] = answers[1], answers[0]
	}
	if answers[0].code != http.StatusAccepted || answers[1].code != http.StatusConflict {
		t.Fatalf("two submissions of one stream_id answered %d and %d, want 202 and 409", answers[0].code, answers[1].code)
	}
	var accepted JobStatus
	if err := json.Unmarshal(answers[0].body, &accepted); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(answers[1].body), accepted.ID) {
		t.Fatalf("409 body %s does not name the holder %s", answers[1].body, accepted.ID)
	}

	release()
	holder, ok := srv.Job(accepted.ID)
	if !ok {
		t.Fatalf("no job %s", accepted.ID)
	}
	waitDone(t, holder)
	st := srv.Status(holder)
	if st.State != StateSucceeded {
		t.Fatalf("holder: %s (%s)", st.State, st.Error)
	}
	whole := runStreamed(t, srv, streamedSpec(6, ""))
	if whole.State != StateSucceeded || st.Result.Checksums != whole.Result.Checksums {
		t.Fatalf("holder checksums %+v, an uninterrupted run's %+v (%s)", st.Result.Checksums, whole.Result.Checksums, whole.State)
	}

	again := runStreamed(t, srv, spec)
	if again.State != StateSucceeded {
		t.Fatalf("resubmission after the holder finished: %s (%s)", again.State, again.Error)
	}
	if again.Result.Checksums != st.Result.Checksums || again.Result.Stream.TilesDone != 0 {
		t.Fatalf("resubmission: checksums %+v after %d tiles, want the stored %+v after none",
			again.Result.Checksums, again.Result.Stream.TilesDone, st.Result.Checksums)
	}
}

// TestPickedPlanIsTheStreamedPlan: the plan tune.PickResidency priced is the
// plan the streamer OpenStream opens with it runs — tile for tile, halo for
// halo — on both boundaries, at k = 1, 2 and 4, remainder sweeps included.
func TestPickedPlanIsTheStreamedPlan(t *testing.T) {
	cases := []struct {
		budgetMB int
		diskBW   float64
		k        int
	}{{1, 1e13, 1}, {1, 1e7, 2}, {2, 1e7, 4}}
	for _, bc := range []string{"clamp", "periodic"} {
		for _, c := range cases {
			spec := Spec{Grid: "96x16x8", Steps: 5, Strategy: "islands", Boundary: bc, Streamed: true, MemoryBudgetMB: c.budgetMB}
			ns, err := spec.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			st, picked, err := OpenStream(ns, stream.Options{Dir: t.TempDir()}, c.budgetMB, c.diskBW)
			if err != nil {
				t.Fatal(err)
			}
			plan := st.Plan()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if picked.Resident || picked.K != c.k {
				t.Fatalf("%s, %d MiB at %g B/s: picked %s, want a k=%d stream", bc, c.budgetMB, c.diskBW, picked.Label, c.k)
			}
			if c.k > 1 && plan.KEffAt(plan.Sweeps-1) == c.k {
				t.Fatalf("%s %s: no remainder sweep over %d steps", bc, picked.Label, ns.Steps)
			}
			if !reflect.DeepEqual(picked.Cost.Plan, plan) {
				t.Errorf("%s %s: priced plan %+v, streamed plan %+v", bc, picked.Label, picked.Cost.Plan, plan)
			}
		}
	}
}
