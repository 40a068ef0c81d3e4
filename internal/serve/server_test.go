package serve_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// waitTerminal blocks until the job finishes (or the test times out).
func waitTerminal(t *testing.T, j *serve.Job) serve.JobState {
	t.Helper()
	select {
	case <-j.Done():
		return j.State()
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (stuck %s)", j.ID, j.State())
		return ""
	}
}

// waitState polls until the job reaches the wanted (non-terminal) state.
func waitState(t *testing.T, j *serve.Job, want serve.JobState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.State(); st == want {
			return
		} else if st.Terminal() {
			t.Fatalf("job %s reached %s while waiting for %s", j.ID, st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.ID, want, j.State())
}

// gatedEngine is a deterministic test engine: every Step consumes one token
// from the shared gate (a closed gate free-runs), and Abort unblocks a pending
// Step with an error — the same contract the real runner's barrier-abort path
// provides.
type gatedEngine struct {
	gate <-chan struct{}

	mu      sync.Mutex
	aborted bool
	reason  string
	abortCh chan struct{}
}

func (e *gatedEngine) Reset() error { return nil }

func (e *gatedEngine) Step() error {
	e.mu.Lock()
	if e.aborted {
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("gated engine aborted: %s", reason)
	}
	ch := e.abortCh
	e.mu.Unlock()
	select {
	case <-e.gate:
		return nil
	case <-ch:
		e.mu.Lock()
		reason := e.reason
		e.mu.Unlock()
		return fmt.Errorf("gated engine aborted: %s", reason)
	}
}

func (e *gatedEngine) Abort(reason string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.aborted {
		e.aborted = true
		e.reason = reason
		close(e.abortCh)
	}
}

func (e *gatedEngine) Checksums() serve.Checksums { return serve.Checksums{Sum: 1} }
func (e *gatedEngine) SetProfiling(bool)          {}
func (e *gatedEngine) Profile() *exec.Profile     { return nil }
func (e *gatedEngine) Info() serve.EngineInfo     { return serve.EngineInfo{KSteps: 1} }
func (e *gatedEngine) Close()                     {}

// gatedFactory builds gated engines sharing one gate channel. Close the gate
// to let every engine free-run; send tokens to release single steps.
func gatedFactory(gate <-chan struct{}) serve.EngineFactory {
	return func(serve.NormSpec) (serve.Engine, error) {
		return &gatedEngine{gate: gate, abortCh: make(chan struct{})}, nil
	}
}

func smallSpec(steps int) serve.Spec {
	return serve.Spec{Grid: "32x16x8", Steps: steps, Processors: 2}
}

// TestServeEndToEndAllStrategies runs every strategy on real MPDATA engines,
// sequentially so the cache behavior is deterministic: round 1 compiles (4
// misses), later rounds reuse (hits > misses after warm-up). All strategies
// must produce the identical checksum — the repo's bit-identical contract.
func TestServeEndToEndAllStrategies(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()

	specs := []serve.Spec{
		{Grid: "32x16x8", Steps: 2, Processors: 2, Strategy: "original"},
		{Grid: "32x16x8", Steps: 2, Processors: 2, Strategy: "3+1d"},
		{Grid: "32x16x8", Steps: 2, Processors: 2, Strategy: "islands"},
		{Grid: "32x16x8", Steps: 2, Processors: 2, Strategy: "islands", CoreIslands: true},
	}
	var sums []float64
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, spec := range specs {
			j, err := srv.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if st := waitTerminal(t, j); st != serve.StateSucceeded {
				t.Fatalf("round %d %s/%v: state %s, err %q", round, spec.Strategy, spec.CoreIslands, st, srv.Status(j).Error)
			}
			res := srv.Status(j).Result
			if res == nil {
				t.Fatal("succeeded job has no result")
			}
			if res.Steps != 2 {
				t.Fatalf("result steps = %d, want 2", res.Steps)
			}
			// Clamp boundaries leak a little mass at the domain edge;
			// anything beyond ~1e-5 relative would be a real bug.
			if res.Checksums.MassDrift > 1e-5 || res.Checksums.MassDrift < -1e-5 {
				t.Fatalf("mass drift %g exceeds tolerance", res.Checksums.MassDrift)
			}
			if round > 0 && !res.CacheHit {
				t.Fatalf("round %d %s: expected a schedule-cache hit", round, spec.Strategy)
			}
			sums = append(sums, res.Checksums.Sum)
		}
	}
	for i := 1; i < len(sums); i++ {
		if sums[i] != sums[0] {
			t.Fatalf("checksum diverged: job %d sum %g != %g", i, sums[i], sums[0])
		}
	}
	ps := srv.PoolStats()
	if ps.Misses != 4 {
		t.Fatalf("cache misses = %d, want 4 (one compile per strategy)", ps.Misses)
	}
	if ps.Hits != uint64(len(specs)*(rounds-1)) {
		t.Fatalf("cache hits = %d, want %d", ps.Hits, len(specs)*(rounds-1))
	}
	if ps.Hits <= ps.Misses {
		t.Fatalf("cache hits %d not greater than misses %d after warm-up", ps.Hits, ps.Misses)
	}
}

// boomEngine wraps a real compiled runner whose kernel panics: the serve-level
// half of the failure-surfacing contract.
type boomEngine struct{ r *exec.Runner }

func (e *boomEngine) Reset() error               { return nil }
func (e *boomEngine) Step() error                { return e.r.Run() }
func (e *boomEngine) Abort(reason string)        { e.r.Abort(reason) }
func (e *boomEngine) Checksums() serve.Checksums { return serve.Checksums{} }
func (e *boomEngine) SetProfiling(bool)          {}
func (e *boomEngine) Profile() *exec.Profile     { return nil }
func (e *boomEngine) Info() serve.EngineInfo     { return serve.EngineInfo{KSteps: 1} }
func (e *boomEngine) Close()                     { e.r.Close() }

// newBoomEngine compiles a real runner around a kernel that panics on the
// i=0 face — one worker dies mid-step, the others unwind at the barriers.
func newBoomEngine(n serve.NormSpec) (serve.Engine, error) {
	kern := func(env *stencil.Env, r grid.Region) {
		if r.I0 == 0 {
			panic("kaboom")
		}
		out, in := env.Field("out"), env.Field("in")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, in.At(i, j, k))
		})
	}
	kp, err := stencil.BuildProgram("boom", []string{"in"}, "out", []stencil.KernelStage{{
		Stage: stencil.Stage{
			Name:   "out",
			Inputs: []stencil.Input{{From: "in", Offsets: []stencil.Offset{{}}}},
			Flops:  1,
		},
		Kernel: kern,
	}})
	if err != nil {
		return nil, err
	}
	m, err := topology.UV2000(n.Processors)
	if err != nil {
		return nil, err
	}
	in := grid.NewField("in", n.Domain)
	in.Fill(1)
	r, err := exec.NewRunner(exec.Config{
		Machine: m, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp,
		Steps: 1, BlockI: 8,
	}, kp, map[string]*grid.Field{"in": in}, "in")
	if err != nil {
		return nil, err
	}
	return &boomEngine{r: r}, nil
}

// TestWorkerPanicFailsOnlyThatJob is the failure-isolation satellite: a kernel
// panic fails exactly the submitting job (error verbatim), the slot is
// released, and the pool keeps serving subsequent jobs.
func TestWorkerPanicFailsOnlyThatJob(t *testing.T) {
	const boomNI = 20 // sentinel grid width routed to the panicking engine
	factory := func(n serve.NormSpec) (serve.Engine, error) {
		if n.Domain.NI == boomNI {
			return newBoomEngine(n)
		}
		return serve.NewSolverEngine(n)
	}
	srv := serve.NewServer(serve.Options{Slots: 1, EngineFactory: factory, Logf: t.Logf})
	defer srv.Close()

	boom, err := srv.Submit(serve.Spec{Grid: "20x16x8", Steps: 3, Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, boom); st != serve.StateFailed {
		t.Fatalf("panicking job state = %s, want failed", st)
	}
	errMsg := srv.Status(boom).Error
	if !strings.Contains(errMsg, "kaboom") {
		t.Fatalf("job error %q does not carry the original kernel panic", errMsg)
	}
	if strings.Contains(errMsg, "barrier aborted") {
		t.Fatalf("job error %q reports a secondary abort, not the kernel panic", errMsg)
	}

	// The slot must be free again and healthy jobs keep flowing.
	for i := 0; i < 3; i++ {
		j, err := srv.Submit(smallSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %d after panic: state %s, err %q", i, st, srv.Status(j).Error)
		}
	}
	ps := srv.PoolStats()
	if ps.Busy != 0 {
		t.Fatalf("pool busy = %d after all jobs finished, want 0", ps.Busy)
	}
	if got := srv.Metrics().Failed.Load(); got != 1 {
		t.Fatalf("failed counter = %d, want 1", got)
	}
}

// TestQueueBackpressure fills the queue behind a blocked slot and asserts the
// 429-style rejection plus its metric, then releases the gate and checks that
// every admitted job still completes.
func TestQueueBackpressure(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, QueueDepth: 2, RetryAfter: 2 * time.Second,
		EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()

	running, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, serve.StateRunning)

	queued := make([]*serve.Job, 0, 2)
	for i := 0; i < 2; i++ {
		j, err := srv.Submit(smallSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	if d := srv.QueueDepth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}

	_, err = srv.Submit(smallSpec(1))
	var full *serve.ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("submit into full queue = %v, want ErrQueueFull", err)
	}
	if full.RetryAfter != 2*time.Second {
		t.Fatalf("rejection hint = %s, want 2s", full.RetryAfter)
	}
	if got := srv.Metrics().Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(gate) // free-run: the blocked slot and both queued jobs finish
	for _, j := range append([]*serve.Job{running}, queued...) {
		if st := waitTerminal(t, j); st != serve.StateSucceeded {
			t.Fatalf("job %s state = %s, want succeeded", j.ID, st)
		}
	}
}

// TestCancelQueuedBeforeAdmission cancels a job that is still waiting in the
// queue: it must turn canceled immediately, without ever occupying a slot.
func TestCancelQueuedBeforeAdmission(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()

	running, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, serve.StateRunning)
	victim, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	srv.Cancel(victim, "canceled by test")
	if st := waitTerminal(t, victim); st != serve.StateCanceled {
		t.Fatalf("queued victim state = %s, want canceled", st)
	}
	if msg := srv.Status(victim).Error; !strings.Contains(msg, "canceled by test") {
		t.Fatalf("victim error %q does not carry the cancel reason", msg)
	}
	if d := srv.QueueDepth(); d != 0 {
		t.Fatalf("queue depth = %d after cancel, want 0", d)
	}
	if got := srv.Metrics().Canceled.Load(); got != 1 {
		t.Fatalf("canceled counter = %d, want 1", got)
	}

	close(gate)
	if st := waitTerminal(t, running); st != serve.StateSucceeded {
		t.Fatalf("running job state = %s, want succeeded", st)
	}
}

// TestCancelRunningMidStep cancels a job whose engine is blocked inside a
// step: the abort must travel the engine's barrier-abort path, the job ends
// canceled, and the poisoned engine is discarded (the next identical job
// compiles fresh instead of reusing it).
func TestCancelRunningMidStep(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()

	j, err := srv.Submit(smallSpec(100))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, serve.StateRunning) // engine is blocked inside Step 1

	srv.Cancel(j, "canceled by client")
	if st := waitTerminal(t, j); st != serve.StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if msg := srv.Status(j).Error; !strings.Contains(msg, "canceled by client") {
		t.Fatalf("error %q does not carry the cancel reason", msg)
	}

	// The aborted engine must not be cached: the next identical job misses.
	close(gate)
	j2, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j2); st != serve.StateSucceeded {
		t.Fatalf("follow-up state = %s, want succeeded", st)
	}
	if res := srv.Status(j2).Result; res.CacheHit {
		t.Fatal("follow-up job hit the cache; the poisoned engine was reused")
	}
}

// TestCancelRunningRealEngine drives the real barrier-abort path end to end:
// a long MPDATA job is canceled mid-run and must come back canceled promptly.
// Its engine is a cached one, already holding the copy of its first fill that
// later Resets restore; poisoned, it is still discarded — the next job of the
// key compiles afresh and reproduces the first job's checksums.
func TestCancelRunningRealEngine(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()

	short := func() *serve.Result {
		t.Helper()
		j, err := srv.Submit(serve.Spec{Grid: "48x32x8", Steps: 3, Processors: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != serve.StateSucceeded {
			t.Fatalf("short job state = %s, err %q", st, srv.Status(j).Error)
		}
		return srv.Status(j).Result
	}
	first := short()

	j, err := srv.Submit(serve.Spec{Grid: "48x32x8", Steps: 100000, Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, serve.StateRunning)
	time.Sleep(20 * time.Millisecond) // land inside the step loop
	srv.Cancel(j, "canceled by client")
	if st := waitTerminal(t, j); st != serve.StateCanceled {
		t.Fatalf("state = %s, want canceled (err %q)", st, srv.Status(j).Error)
	}
	done := srv.Status(j)
	if done.Step >= 100000 {
		t.Fatalf("job ran to completion (%d steps) despite the cancel", done.Step)
	}

	after := short()
	if after.CacheHit {
		t.Fatal("the job after the cancel hit the cache; the poisoned engine was restored and reused")
	}
	if after.Checksums != first.Checksums {
		t.Fatalf("fresh engine after the cancel: %+v, the first job reported %+v", after.Checksums, first.Checksums)
	}
	if ps := srv.PoolStats(); ps.Hits != 1 || ps.Misses != 2 {
		t.Fatalf("pool hits/misses = %d/%d, want 1/2 (the canceled job reused the first engine, the next compiled)", ps.Hits, ps.Misses)
	}
}

// TestServeKStepJobs is the serving half of temporal blocking: a resident
// job advances one step per dispatch, so a ksteps above 1 is refused at
// submission, and ksteps 0 and 1 are the same run on the same cached engine.
func TestServeKStepJobs(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()

	if _, err := srv.Submit(serve.Spec{Grid: "32x16x8", Steps: 4, Processors: 2, KSteps: 4}); err == nil ||
		!strings.Contains(err.Error(), "ksteps must be 0 or 1") {
		t.Fatalf("ksteps=4 submission: %v, want the one-step-at-a-time rejection", err)
	}
	run := func(ksteps int) *serve.Result {
		t.Helper()
		j, err := srv.Submit(serve.Spec{Grid: "32x16x8", Steps: 4, Processors: 2, KSteps: ksteps})
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, j); st != serve.StateSucceeded {
			t.Fatalf("ksteps=%d: state %s, err %q", ksteps, st, srv.Status(j).Error)
		}
		res := srv.Status(j).Result
		if res.Steps != 4 || res.KSteps != 1 {
			t.Fatalf("ksteps=%d: result steps = %d in blocks of %d, want 4 in blocks of 1", ksteps, res.Steps, res.KSteps)
		}
		return res
	}
	zero := run(0)
	one := run(1)
	if !one.CacheHit {
		t.Fatal("ksteps=1 job missed the ksteps=0 job's engine")
	}
	if one.Checksums != zero.Checksums {
		t.Fatalf("ksteps=1 checksums %+v differ from ksteps=0's %+v", one.Checksums, zero.Checksums)
	}
}

// TestCancelKStepMidBlock cancels a streamed islands job, whose tile engines
// each run their residency's k steps as one temporal block, while workers are
// inside a tile: the barrier-abort path must stop the block promptly, the job
// must come back canceled, not stuck or succeeded, and the slot must keep
// serving.
func TestCancelKStepMidBlock(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, SpillDir: t.TempDir(), Logf: t.Logf})
	defer srv.Close()

	// The streamed workload's class: its residency runs 2-step blocks.
	spec := serve.Spec{Grid: "384x64x16", Steps: 400, Processors: 2, Streamed: true, MemoryBudgetMB: 16}
	tilesBefore := srv.Metrics().StreamTiles.Load()
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.Metrics().StreamTiles.Load() == tilesBefore && !j.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("no tile completed before the cancel deadline")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Cancel(j, "canceled by client")
	if st := waitTerminal(t, j); st != serve.StateCanceled {
		t.Fatalf("state = %s, want canceled (err %q)", st, srv.Status(j).Error)
	}
	if done := srv.Status(j); done.Step >= spec.Steps {
		t.Fatalf("job ran to completion (%d steps) despite the cancel", done.Step)
	}
	// The same class with fewer steps runs to completion on the slot, and
	// its tiles were k-step blocks.
	spec.Steps = 4
	next, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, next); st != serve.StateSucceeded {
		t.Fatalf("follow-up job state = %s, err %q", st, srv.Status(next).Error)
	}
	if k := srv.Status(next).Result.KSteps; k < 2 {
		t.Fatalf("follow-up streamed job ran blocks of %d steps, want a k-step residency", k)
	}
}

// TestDrainGraceful checks the happy drain path: queued and running jobs all
// finish within the timeout and the drain reports success while refusing new
// admissions.
func TestDrainGraceful(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})

	running, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, serve.StateRunning)
	var queued []*serve.Job
	for i := 0; i < 2; i++ {
		j, err := srv.Submit(smallSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(30 * time.Second) }()

	// Draining servers refuse new work immediately.
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := srv.Submit(smallSpec(1)); !errors.Is(err, serve.ErrDraining) {
		t.Fatalf("submit during drain = %v, want ErrDraining", err)
	}

	close(gate) // everything in flight finishes
	if err := <-drainErr; err != nil {
		t.Fatalf("drain = %v, want nil", err)
	}
	for _, j := range append([]*serve.Job{running}, queued...) {
		if st := j.State(); st != serve.StateSucceeded {
			t.Fatalf("job %s state after drain = %s, want succeeded", j.ID, st)
		}
	}
}

// TestDrainTimeoutAbortsSurvivors checks the drain contract's hard edge: jobs
// that outlive the timeout are aborted and reported failed — both the one
// blocked mid-step and the one still queued behind it.
func TestDrainTimeoutAbortsSurvivors(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer close(gate)

	running, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, serve.StateRunning)
	queued, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}

	if err := srv.Drain(50 * time.Millisecond); err != nil {
		t.Fatalf("drain = %v, want nil (survivors aborted within grace)", err)
	}
	for _, j := range []*serve.Job{running, queued} {
		if st := j.State(); st != serve.StateFailed {
			t.Fatalf("survivor %s state = %s, want failed", j.ID, st)
		}
		if msg := srv.Status(j).Error; !strings.Contains(msg, "drain") {
			t.Fatalf("survivor %s error %q does not mention the drain", j.ID, msg)
		}
	}
	if got := srv.Metrics().Failed.Load(); got != 2 {
		t.Fatalf("failed counter = %d, want 2", got)
	}
}

// TestJobDeadlineExpires submits a job with a deadline shorter than its gated
// run: it must come back canceled with the deadline as the reason.
func TestJobDeadlineExpires(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	defer close(gate)

	spec := smallSpec(10)
	spec.TimeoutMs = 50
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st != serve.StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if msg := srv.Status(j).Error; !strings.Contains(msg, "deadline") {
		t.Fatalf("error %q does not mention the deadline", msg)
	}
}

// TestHTTPAPIRoundTrip exercises the HTTP surface end to end with the typed
// client: submit, SSE progress, result, metrics, bad requests.
func TestHTTPAPIRoundTrip(t *testing.T) {
	gate := make(chan struct{}, 16)
	srv := serve.NewServer(serve.Options{
		Slots: 1, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := serveclient.New(hs.URL)
	ctx := context.Background()

	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	// Bad specs are rejected with a diagnostic, not accepted.
	_, err := client.Submit(ctx, serve.Spec{Grid: "0x0x0", Steps: 1})
	var apiErr *serveclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Fatalf("bad spec submit = %v, want 400", err)
	}
	if _, err := client.Status(ctx, "j99999999"); !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("unknown job status = %v, want 404", err)
	}

	st, err := client.Submit(ctx, smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateQueued && st.State != serve.StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	// Result before completion conflicts.
	if _, err := client.Result(ctx, st.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != 409 {
		t.Fatalf("early result = %v, want 409", err)
	}

	// Stream events; release the gate only after the stream is attached so
	// the progress events are observed, not raced.
	var events []serve.Event
	attached := make(chan struct{})
	streamed := make(chan error, 1)
	go func() {
		first := true
		streamed <- client.Events(ctx, st.ID, func(ev serve.Event) bool {
			if first {
				close(attached)
				first = false
			}
			events = append(events, ev)
			return true
		})
	}()
	<-attached
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	if err := <-streamed; err != nil {
		t.Fatalf("events stream: %v", err)
	}
	last := events[len(events)-1]
	if last.Type != "done" || last.State != serve.StateSucceeded {
		t.Fatalf("last event = %+v, want done/succeeded", last)
	}
	progress := 0
	for _, ev := range events {
		if ev.Type == "progress" {
			progress++
			if ev.Steps != 3 {
				t.Fatalf("progress event steps = %d, want 3", ev.Steps)
			}
		}
	}
	if progress == 0 {
		t.Fatal("no progress events observed on the live stream")
	}

	final, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateSucceeded || final.Result == nil || final.Result.Steps != 3 {
		t.Fatalf("final = %+v, want succeeded with 3 steps", final)
	}

	// A finished job's event stream replays the terminal event immediately.
	var replay []serve.Event
	if err := client.Events(ctx, st.ID, func(ev serve.Event) bool {
		replay = append(replay, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(replay) == 0 || replay[len(replay)-1].Type != "done" {
		t.Fatalf("replayed events = %+v, want a terminal done", replay)
	}

	m, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := serveclient.MetricValue(m, "serve_jobs_succeeded_total"); !ok || v != 1 {
		t.Fatalf("serve_jobs_succeeded_total = %g (ok=%v), want 1", v, ok)
	}
	if v, ok := serveclient.MetricValue(m, "serve_steps_total"); !ok || v != 3 {
		t.Fatalf("serve_steps_total = %g (ok=%v), want 3", v, ok)
	}
	if !strings.Contains(m, "serve_step_seconds_bucket{strategy=\"islands-of-cores\"") {
		t.Fatal("metrics exposition lacks the per-strategy step histogram")
	}
}

// TestHTTPQueueFullIs429 asserts the admission-control wire contract: 429
// plus a Retry-After hint.
func TestHTTPQueueFullIs429(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, QueueDepth: 1, RetryAfter: 3 * time.Second,
		EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	defer close(gate)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := serveclient.New(hs.URL)
	ctx := context.Background()

	running, err := client.Submit(ctx, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := srv.Job(running.ID)
	waitState(t, j, serve.StateRunning)
	if _, err := client.Submit(ctx, smallSpec(1)); err != nil {
		t.Fatal(err)
	}

	_, err = client.Submit(ctx, smallSpec(1))
	var apiErr *serveclient.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 429 {
		t.Fatalf("submit into full queue = %v, want 429", err)
	}
	if !apiErr.IsRetryable() || apiErr.RetryAfter != 3*time.Second {
		t.Fatalf("rejection = %+v, want retryable with 3s hint", apiErr)
	}
}

// TestNoGoroutineLeak runs jobs through the full lifecycle (success, failure,
// cancel, drain) and asserts the server unwinds to the baseline goroutine
// count — the acceptance criterion's leak check.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 2, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	j1, err := srv.Submit(smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := srv.Submit(smallSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, serve.StateRunning)
	srv.Cancel(j2, "canceled by test")
	close(gate)
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	if err := srv.Drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain — leak", before, runtime.NumGoroutine())
}

// TestTerminalJobRetention pins the registry bound: a job in flight is kept
// however old it is, of the finished jobs exactly the most recent
// serve.TerminalRetention stay answerable, and an older id is gone (404 at
// the API).
func TestTerminalJobRetention(t *testing.T) {
	held := make(chan struct{})
	open := make(chan struct{})
	close(open)
	srv := serve.NewServer(serve.Options{
		Slots: 2, Logf: t.Logf,
		// The 7-step job blocks until the test ends; every other job free-runs.
		EngineFactory: func(ns serve.NormSpec) (serve.Engine, error) {
			if ns.Steps == 7 {
				return gatedFactory(held)(ns)
			}
			return gatedFactory(open)(ns)
		},
	})
	defer srv.Close()
	defer close(held)

	inflight, err := srv.Submit(smallSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	var ids []string
	for i := 0; i < serve.TerminalRetention+extra; i++ {
		j, err := srv.Submit(smallSpec(1))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitTerminal(t, j)
		ids = append(ids, j.ID)
	}

	if _, ok := srv.Job(inflight.ID); !ok {
		t.Fatalf("in-flight job %s (the oldest id) was dropped from the registry", inflight.ID)
	}
	for i, id := range ids {
		_, ok := srv.Job(id)
		if want := i >= extra; ok != want {
			t.Fatalf("finished job %d of %d (%s): present = %v, want %v", i, len(ids), id, ok, want)
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+ids[0], nil))
	if rec.Code != 404 {
		t.Fatalf("GET of an expired job id = %d, want 404", rec.Code)
	}
}
