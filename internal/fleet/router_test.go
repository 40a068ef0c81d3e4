package fleet_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/fleet"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// blockEngine is a deterministic test engine: every Step consumes one token
// from the shared gate (a closed gate free-runs), a positive stepDelay adds
// wall time per step, and Abort unblocks a pending Step with an error — the
// same contract the real runner's barrier-abort path provides.
type blockEngine struct {
	gate      <-chan struct{}
	stepDelay time.Duration

	mu      sync.Mutex
	aborted bool
	reason  string
	abortCh chan struct{}
}

func (e *blockEngine) Reset() error { return nil }

func (e *blockEngine) Step() error {
	e.mu.Lock()
	if e.aborted {
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("test engine aborted: %s", reason)
	}
	ch := e.abortCh
	e.mu.Unlock()
	if e.stepDelay > 0 {
		t := time.NewTimer(e.stepDelay)
		select {
		case <-t.C:
		case <-ch:
			t.Stop()
			e.mu.Lock()
			reason := e.reason
			e.mu.Unlock()
			return fmt.Errorf("test engine aborted: %s", reason)
		}
	}
	select {
	case <-e.gate:
		return nil
	case <-ch:
		e.mu.Lock()
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("test engine aborted: %s", reason)
	}
}

func (e *blockEngine) Abort(reason string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aborted {
		e.aborted = true
		e.reason = reason
		close(e.abortCh)
	}
}

func (e *blockEngine) Checksums() serve.Checksums { return serve.Checksums{Sum: 1} }
func (e *blockEngine) SetProfiling(bool)          {}
func (e *blockEngine) Profile() *exec.Profile     { return nil }
func (e *blockEngine) Info() serve.EngineInfo     { return serve.EngineInfo{KSteps: 1} }
func (e *blockEngine) Close()                     {}

func blockFactory(gate <-chan struct{}, stepDelay time.Duration) serve.EngineFactory {
	return func(serve.NormSpec) (serve.Engine, error) {
		return &blockEngine{gate: gate, stepDelay: stepDelay, abortCh: make(chan struct{})}, nil
	}
}

// closedGate returns an already-closed gate: engines free-run.
func closedGate() <-chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// replica is one test fleet member: the serve.Server plus its HTTP front.
type replica struct {
	srv *serve.Server
	hs  *httptest.Server
}

func startReplicas(t *testing.T, n int, opts serve.Options) (map[string]*replica, []string) {
	t.Helper()
	byURL := make(map[string]*replica, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		o := opts
		o.Logf = t.Logf
		srv := serve.NewServer(o)
		hs := httptest.NewServer(srv.Handler())
		byURL[hs.URL] = &replica{srv: srv, hs: hs}
		urls = append(urls, hs.URL)
	}
	t.Cleanup(func() {
		for _, r := range byURL {
			r.hs.Close()
			r.srv.Close()
		}
	})
	return byURL, urls
}

func fastRouterOptions(urls []string, t *testing.T) fleet.Options {
	return fleet.Options{
		Replicas:       urls,
		HealthInterval: 20 * time.Millisecond,
		FailThreshold:  2,
		PollInterval:   5 * time.Millisecond,
		PollFailLimit:  3,
		Backoff:        serveclient.BackoffPolicy{Initial: 10 * time.Millisecond, Max: 100 * time.Millisecond},
		Logf:           t.Logf,
	}
}

func fleetSpec(steps int) serve.Spec {
	return serve.Spec{Grid: "32x16x8", Steps: steps, Processors: 2}
}

// waitFleetJob blocks until the routed job finishes (or the test times out).
func waitFleetJob(t *testing.T, j *fleet.Job) serve.JobState {
	t.Helper()
	select {
	case <-j.Done():
		return j.State()
	case <-time.After(60 * time.Second):
		t.Fatalf("fleet job %s did not reach a terminal state (stuck %s)", j.ID, j.State())
		return ""
	}
}

// waitReplicaRunning polls until the replica reports n executing jobs.
func waitReplicaRunning(t *testing.T, r *replica, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r.srv.Stats().Running == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica never reached %d running jobs (stats %+v)", n, r.srv.Stats())
}

// TestFleetAffinityConcentratesCache submits the same spec repeatedly through
// a 3-replica fleet: every job must land on the one home replica the hash
// picks, so after the first compile every job is an engine-cache hit — the
// fleet-wide hit rate matches a single warm server.
func TestFleetAffinityConcentratesCache(t *testing.T) {
	_, urls := startReplicas(t, 3, serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	const jobs = 9
	homes := map[string]int{}
	for i := 0; i < jobs; i++ {
		j, err := router.Submit(context.Background(), fleetSpec(2))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s: %s", i, st, router.Status(j).Error)
		}
		homes[router.Status(j).Replica]++
	}
	if len(homes) != 1 {
		t.Fatalf("identical specs spread over %d replicas (%v), want 1 home", len(homes), homes)
	}
	m := router.Metrics()
	if hits, misses := m.CacheHits.Load(), m.CacheMisses.Load(); hits < jobs-1 || misses > 1 {
		t.Fatalf("fleet cache hits %d / misses %d, want >= %d hits from affinity", hits, misses, jobs-1)
	}
	if m.Steals.Load() != 0 {
		t.Fatalf("unsaturated fleet stole %d placements, want 0", m.Steals.Load())
	}
}

// TestFleetWorkStealingAndAggregate429 saturates the home replica so
// placements overflow to the ring successor, then saturates the whole fleet
// and asserts the aggregate backpressure contract: *BusyError from Submit,
// and HTTP 429 with an integer Retry-After >= 1 at the router API.
func TestFleetWorkStealingAndAggregate429(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	replicas, urls := startReplicas(t, 2, serve.Options{
		Slots: 1, QueueDepth: 1, RetryAfter: 2 * time.Second,
		EngineFactory: blockFactory(gate, 0),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	// Job 1 occupies the home slot; wait for it to actually execute so job 2
	// lands in the home queue rather than racing the dispatcher.
	j1, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	home := router.Status(j1).Replica
	other := urls[0]
	if other == home {
		other = urls[1]
	}
	waitReplicaRunning(t, replicas[home], 1)

	j2, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Status(j2).Replica; got != home {
		t.Fatalf("job 2 placed on %s, want home %s", got, home)
	}

	// Home is now saturated (slot + queue): job 3 must be stolen.
	j3, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := router.Status(j3).Replica; got != other {
		t.Fatalf("job 3 placed on %s, want steal to %s", got, other)
	}
	if router.Metrics().Steals.Load() == 0 {
		t.Fatal("steal not counted in fleet metrics")
	}
	waitReplicaRunning(t, replicas[other], 1)
	j4, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	// Fleet full: 2 slots + 2 queue entries. The next submission aggregates
	// every replica's 429 into one honest rejection.
	_, err = router.Submit(ctx, fleetSpec(1))
	var busy *fleet.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("submit into full fleet = %v, want *BusyError", err)
	}
	if busy.Replicas != 2 || busy.RetryAfter < time.Second {
		t.Fatalf("busy = %+v, want 2 replicas and >= 1s hint", busy)
	}

	// Same contract over HTTP: 429 plus an integer Retry-After >= 1.
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	resp, err := http.Post(rhs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"grid":"32x16x8","steps":1,"processors":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("router submit = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	// Release the fleet; every admitted job must finish.
	go func() {
		for i := 0; i < 4; i++ {
			gate <- struct{}{}
		}
	}()
	for i, j := range []*fleet.Job{j1, j2, j3, j4} {
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s: %s", i+1, st, router.Status(j).Error)
		}
	}
}

// TestFleetFailureInjection is the acceptance scenario: kill a replica with
// jobs queued and running on it, and every affected job must be rerouted to a
// survivor and re-run — each reaching exactly one terminal state, none lost,
// none failed. Also asserts the router unwinds to the baseline goroutine
// count afterwards.
func TestFleetFailureInjection(t *testing.T) {
	before := runtime.NumGoroutine()

	replicas, urls := startReplicas(t, 3, serve.Options{
		Slots: 1, QueueDepth: 16,
		EngineFactory: blockFactory(closedGate(), 30*time.Millisecond),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Same spec for every job: all of them home onto one replica, so killing
	// it hits one running job plus a deep queue.
	const jobs = 6
	routed := make([]*fleet.Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		j, err := router.Submit(ctx, fleetSpec(4))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		routed = append(routed, j)
	}
	victimURL := router.Status(routed[0]).Replica
	victim := replicas[victimURL]
	waitReplicaRunning(t, victim, 1)

	// Kill the victim mid-job: drop its client connections and its listener,
	// then tear the server down so its in-flight work dies with it.
	victim.hs.CloseClientConnections()
	victim.hs.Close()
	victim.srv.Close()

	for i, j := range routed {
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s after replica kill: %s", i, st, router.Status(j).Error)
		}
		st := router.Status(j)
		if st.Replica == victimURL {
			t.Fatalf("job %d reports the dead replica %s as its placement", i, st.Replica)
		}
		// Every job's event stream ended without "done" when the victim
		// died: each is rerouted exactly once, not once per broken stream
		// and failed status request.
		if st.Reroutes != 1 {
			t.Fatalf("job %d survived %d reroutes, want exactly 1", i, st.Reroutes)
		}
	}

	m := router.Metrics()
	if m.Succeeded.Load() != jobs || m.Failed.Load() != 0 || m.Canceled.Load() != 0 {
		t.Fatalf("terminal counters: %d succeeded, %d failed, %d canceled — want %d/0/0 (exactly-once)",
			m.Succeeded.Load(), m.Failed.Load(), m.Canceled.Load(), jobs)
	}
	if m.Rerouted.Load() != jobs {
		t.Fatalf("fleet_reroutes_total = %d, want %d: one per job on the killed replica", m.Rerouted.Load(), jobs)
	}

	// The health checker must have evicted the victim from the membership.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if healthy := countHealthy(router); healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead replica never left the membership (healthy=%d)", countHealthy(router))
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := router.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for url, r := range replicas {
		if url != victimURL {
			r.hs.Close()
			r.srv.Close()
		}
	}

	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain — leak", before, runtime.NumGoroutine())
}

func countHealthy(router *fleet.Router) int {
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "fleet_replicas_healthy "); ok {
			n, _ := strconv.Atoi(strings.TrimSpace(v))
			return n
		}
	}
	return -1
}

// TestFleetDrainAbortReroute covers the replica-side requeue hook: a replica
// drain aborts a running job with serve.DrainAbortReason, and the router must
// recognize that as a replica fault — rerouting the job to a survivor and
// re-running it — rather than reporting the drain abort as a job failure.
func TestFleetDrainAbortReroute(t *testing.T) {
	gate := make(chan struct{})
	replicas, urls := startReplicas(t, 2, serve.Options{
		Slots: 1, EngineFactory: blockFactory(gate, 0),
	})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	j, err := router.Submit(ctx, fleetSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	home := router.Status(j).Replica
	waitReplicaRunning(t, replicas[home], 1)

	// Drain the home replica: the blocked step is aborted with the drain
	// reason, the remote job fails, and the router must reroute.
	drained := make(chan error, 1)
	go func() { drained <- replicas[home].srv.Drain(30 * time.Millisecond) }()

	deadline := time.Now().Add(10 * time.Second)
	for router.Status(j).Replica == home {
		if time.Now().After(deadline) {
			t.Fatalf("job never rerouted off the draining replica (state %s, err %q)",
				j.State(), router.Status(j).Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate) // let the rerouted run free-run to completion

	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("rerouted job finished %s: %s", st, router.Status(j).Error)
	}
	st := router.Status(j)
	if st.Replica == home || st.Reroutes != 1 {
		t.Fatalf("status after reroute = replica %s, reroutes %d — want the survivor and 1", st.Replica, st.Reroutes)
	}
	if router.Metrics().Rerouted.Load() != 1 {
		t.Fatalf("fleet_reroutes_total = %d, want 1", router.Metrics().Rerouted.Load())
	}
	if err := <-drained; err != nil {
		t.Fatalf("replica drain: %v", err)
	}
}

// TestFleetHTTPDialect drives the router through the shared typed client:
// the router speaks the same wire dialect as a replica, so serveclient's
// submit/wait/cancel flow works unchanged, and bad input maps to the same
// status codes.
func TestFleetHTTPDialect(t *testing.T) {
	_, urls := startReplicas(t, 2, serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0)})
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	rhs := httptest.NewServer(router.Handler())
	defer rhs.Close()
	client := serveclient.New(rhs.URL)
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var apiErr *serveclient.APIError
	if _, err := client.Submit(ctx, serve.Spec{Grid: "0x0x0", Steps: 1}); !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bad spec through router = %v, want 400", err)
	}
	// The router admits by the replicas' rule, with their words.
	spec := serve.Spec{Grid: "32x16x8", Steps: 5, KSteps: 2}
	want := spec.Validate().Error()
	if _, err := client.Submit(ctx, spec); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != 400 || apiErr.Message != want {
		t.Fatalf("ksteps 2 through router = %v, want 400 %q", err, want)
	}
	if _, err := client.Status(ctx, "f99999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("unknown job through router = %v, want 404", err)
	}

	st, err := client.Submit(ctx, fleetSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateSucceeded || final.Result == nil || final.Result.Steps != 2 {
		t.Fatalf("final = %+v, want succeeded with 2 steps", final)
	}
	if final.Replica == "" {
		t.Fatal("router status does not report the serving replica")
	}

	// The fleet view lists both replicas with their stats.
	resp, err := http.Get(rhs.URL + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/fleet = %d", resp.StatusCode)
	}
}

// TestFleetCompletionIsPushed: the router learns of a job's end from the
// replica's event stream, not from a poll. With the fallback pause set to 10 s
// a gated job must be terminal on the router — progress folded in, result
// attached — within a fraction of a second of the gate opening.
func TestFleetCompletionIsPushed(t *testing.T) {
	gate := make(chan struct{})
	replicas, urls := startReplicas(t, 2, serve.Options{Slots: 1, EngineFactory: blockFactory(gate, 0)})
	opts := fastRouterOptions(urls, t)
	opts.PollInterval = 10 * time.Second
	router, err := fleet.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	j, err := router.Submit(context.Background(), fleetSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	waitReplicaRunning(t, replicas[router.Status(j).Replica], 1)
	gate <- struct{}{} // one step: its progress event must reach the router too
	deadline := time.Now().Add(5 * time.Second)
	for router.Status(j).Step != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("step progress never pushed to the router (status %+v)", router.Status(j))
		}
		time.Sleep(time.Millisecond)
	}

	opened := time.Now()
	close(gate)
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job not terminal on the router 5 s after the gate opened (PollInterval is 10 s): completion is not pushed")
	}
	t.Logf("terminal on the router %s after the gate opened", time.Since(opened))
	st := router.Status(j)
	if st.State != serve.StateSucceeded || st.Result == nil || st.Result.Steps != 3 || st.Step != 3 {
		t.Fatalf("pushed final status = %+v, want succeeded at step 3 with the result attached", st)
	}
}

// withoutEvents fronts a replica the way a proxy that cannot stream would:
// the events route answers code, everything else passes through.
func withoutEvents(h http.Handler, code int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			http.Error(w, `{"error":"no event streams here"}`, code)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetPollFallbackWithoutEvents: replicas whose front refuses the event
// stream (501 from one, 404 from the other) still complete their jobs — the
// watcher falls back to asking for the status every PollInterval.
func TestFleetPollFallbackWithoutEvents(t *testing.T) {
	var urls []string
	for _, code := range []int{http.StatusNotImplemented, http.StatusNotFound} {
		srv := serve.NewServer(serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 2*time.Millisecond), Logf: t.Logf})
		hs := httptest.NewServer(withoutEvents(srv.Handler(), code))
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		urls = append(urls, hs.URL)
	}
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Distinct grids spread the jobs over both fronts — where each lands
	// depends on the ring hash of this run's random httptest ports, so keep
	// submitting new grids past the first 8 until both fronts have served
	// (all of 64 keys on one front of two is a 2^-63 event).
	served := map[string]int{}
	for i := 0; i < 64 && (i < 8 || len(served) < 2); i++ {
		spec := fleetSpec(3)
		spec.Grid = fmt.Sprintf("%dx16x8", 16+8*i)
		j, err := router.Submit(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitFleetJob(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d finished %s without event streams: %s", i, st, router.Status(j).Error)
		}
		st := router.Status(j)
		if st.Result == nil || st.Result.Steps != 3 || st.Reroutes != 0 {
			t.Fatalf("job %d: %+v, want a 3-step result and no reroute", i, st)
		}
		served[st.Replica]++
	}
	if len(served) != 2 {
		t.Fatalf("jobs ran on %v, want both fronts (501 and 404) exercised", served)
	}
	if m := router.Metrics(); m.Rerouted.Load() != 0 || m.Failed.Load() != 0 {
		t.Fatalf("%d reroutes, %d failures through the poll fallback, want 0/0", m.Rerouted.Load(), m.Failed.Load())
	}
}

// halfOpen fronts a replica that can go half-open: while hung is set it
// accepts every request and never answers (until release closes or the client
// gives up); otherwise requests pass through.
func halfOpen(h http.Handler, hung *atomic.Bool, release <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hung.Load() {
			select {
			case <-release:
			case <-r.Context().Done():
			}
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetHalfOpenReplica: a replica that accepted a job and then stops
// answering — connections stay open, nothing comes back — must not hold the
// job. Once the health loop marks it down, the follow on it is canceled and
// the job is rerouted; afterwards no goroutine is left behind.
func TestFleetHalfOpenReplica(t *testing.T) {
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	release := make(chan struct{})
	hung := map[string]*atomic.Bool{}
	var urls []string
	var closers []func()
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Options{Slots: 1, EngineFactory: blockFactory(gate, 0), Logf: t.Logf})
		flag := new(atomic.Bool)
		hs := httptest.NewServer(halfOpen(srv.Handler(), flag, release))
		hung[hs.URL] = flag
		urls = append(urls, hs.URL)
		closers = append(closers, func() {
			hs.CloseClientConnections()
			hs.Close()
			srv.Close()
		})
	}
	opts := fastRouterOptions(urls, t)
	opts.PollInterval = 10 * time.Second // nothing below may depend on polling
	router, err := fleet.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}

	j, err := router.Submit(context.Background(), fleetSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	home := router.Status(j).Replica
	// The follow is open and silent (the job waits at the gate) when the
	// replica goes half-open: new requests hang, the open stream says nothing.
	hung[home].Store(true)

	deadline := time.Now().Add(10 * time.Second)
	for router.Status(j).Replica == home {
		if time.Now().After(deadline) {
			t.Fatalf("job still on the half-open replica after 10 s (state %s)", j.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("rerouted job finished %s: %s", st, router.Status(j).Error)
	}
	if st := router.Status(j); st.Reroutes != 1 {
		t.Fatalf("job survived %d reroutes, want 1", st.Reroutes)
	}

	router.Close()
	close(release)
	for _, c := range closers {
		c()
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(leakDeadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+3 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after — leak", before, runtime.NumGoroutine())
}

// TestFleetTerminalJobRetention pins the router's registry bound, the same
// as a replica's: jobs in flight are always kept, of the finished ones the
// most recent serve.TerminalRetention, and an older id answers 404.
func TestFleetTerminalJobRetention(t *testing.T) {
	held := make(chan struct{})
	_, urls := startReplicas(t, 1, serve.Options{
		Slots: 2,
		// The 7-step job blocks until the test ends; every other job free-runs.
		EngineFactory: func(ns serve.NormSpec) (serve.Engine, error) {
			if ns.Steps == 7 {
				return blockFactory(held, 0)(ns)
			}
			return blockFactory(closedGate(), 0)(ns)
		},
	})
	defer close(held)
	opts := fastRouterOptions(urls, t)
	opts.Logf = nil
	router, err := fleet.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	ctx := context.Background()

	inflight, err := router.Submit(ctx, fleetSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	var ids []string
	for i := 0; i < serve.TerminalRetention+extra; i++ {
		j, err := router.Submit(ctx, fleetSpec(1))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitFleetJob(t, j)
		ids = append(ids, j.ID)
	}

	if _, ok := router.Job(inflight.ID); !ok {
		t.Fatalf("in-flight job %s (the oldest id) was dropped from the registry", inflight.ID)
	}
	for i, id := range ids {
		_, ok := router.Job(id)
		if want := i >= extra; ok != want {
			t.Fatalf("finished job %d of %d (%s): present = %v, want %v", i, len(ids), id, ok, want)
		}
	}
	rec := httptest.NewRecorder()
	router.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+ids[0], nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET of an expired job id = %d, want 404", rec.Code)
	}
}

// TestFleetPlacementOnHalfOpenReplica: a submission whose home went
// half-open before the health loop noticed must not hang on it either — the
// placement request is canceled when the replica is marked down, and the walk
// moves on to the next replica.
func TestFleetPlacementOnHalfOpenReplica(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var hung atomic.Bool
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Options{Slots: 1, EngineFactory: blockFactory(closedGate(), 0), Logf: t.Logf})
		h := srv.Handler()
		if i == 0 { // only the first replica ever hangs
			h = halfOpen(h, &hung, release)
		}
		hs := httptest.NewServer(h)
		t.Cleanup(func() {
			hs.CloseClientConnections()
			hs.Close()
			srv.Close()
		})
		urls = append(urls, hs.URL)
	}
	router, err := fleet.NewRouter(fastRouterOptions(urls, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// Eight distinct classes: some are owned by the replica about to hang.
	hung.Store(true)
	start := time.Now()
	for i := 0; i < 8; i++ {
		spec := fleetSpec(1)
		spec.Grid = fmt.Sprintf("%dx16x8", 16+8*i)
		j, err := router.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d with a half-open replica in the ring: %v", i, err)
		}
		if st := waitFleetJob(t, j); st != serve.StateSucceeded || router.Status(j).Replica != urls[1] {
			t.Fatalf("job %d finished %s on %s, want succeeded on the live replica %s", i, st, router.Status(j).Replica, urls[1])
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("8 submissions took %s: placement hung on the half-open replica", took)
	}
}

// TestFleetOlderReplica runs a job through a replica from before this
// protocol: its "done" event carries no result and its stats advertise no
// cache capacity. The router must fetch the result with a status request
// rather than report a succeeded job without one.
func TestFleetOlderReplica(t *testing.T) {
	final := serve.JobStatus{ID: "j1", State: serve.StateSucceeded, Step: 2, Steps: 2,
		Result: &serve.Result{Steps: 2, Checksums: serve.Checksums{Sum: 42}, CacheHit: true}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"j1","state":"queued","steps":2}`)
	})
	mux.HandleFunc("GET /v1/jobs/j1/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: done\ndata: {\"type\":\"done\",\"state\":\"succeeded\",\"step\":2,\"steps\":2}\n\n")
	})
	mux.HandleFunc("GET /v1/jobs/j1", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(final)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"queue_depth":0,"queue_capacity":64,"slots_total":1}`)
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()
	router, err := fleet.NewRouter(fastRouterOptions([]string{hs.URL}, t))
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	j, err := router.Submit(context.Background(), fleetSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitFleetJob(t, j); st != serve.StateSucceeded {
		t.Fatalf("job finished %s: %s", st, router.Status(j).Error)
	}
	if res := router.Status(j).Result; res == nil || res.Checksums.Sum != 42 {
		t.Fatalf("result through an older replica = %+v, want the one its status route returns", res)
	}
	if hits := router.Metrics().CacheHits.Load(); hits != 1 {
		t.Fatalf("fleet cache hits = %d, want 1 (read from the fetched result)", hits)
	}
}
