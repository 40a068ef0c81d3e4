package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/tune"
)

// ErrDraining rejects submissions while the server drains (HTTP 503).
var ErrDraining error = Unavailable{Msg: "serve: server is draining, not admitting jobs", RetryAfter: 10}

// ErrStreamBusy rejects a streamed job naming a stream_id whose store a live
// (queued or running) job holds (HTTP 409): two jobs on one store would
// truncate and overwrite each other's planes.
type ErrStreamBusy struct {
	StreamID string
	// Holder is the id of the job that holds the store.
	Holder string
}

func (e *ErrStreamBusy) Error() string {
	return fmt.Sprintf("serve: stream_id %q is held by job %s until it finishes", e.StreamID, e.Holder)
}

// Answer implements Rejection: 409.
func (e *ErrStreamBusy) Answer() (int, int, string) { return http.StatusConflict, 0, e.Error() }

// DrainAbortReason is the error reported by jobs the drain timeout aborts.
// It is part of the replica contract: the fleet router (internal/fleet)
// recognizes it as a replica fault — the job did nothing wrong, its executor
// went away — and reroutes the job to another replica instead of failing it.
const DrainAbortReason = "aborted by server drain"

// Options configures a Server. The zero value selects the documented
// defaults.
type Options struct {
	// Slots is the runner-slot capacity (0 = DefaultSlots(): host CPUs
	// divided by the cores one simulated work team occupies).
	Slots int
	// MaxCached bounds the idle compiled-runner cache (0 = max(Slots, 8)).
	MaxCached int
	// QueueDepth bounds the admission queue (0 = 64).
	QueueDepth int
	// RetryAfter is the backoff hinted to rejected clients (0 = 1s).
	RetryAfter time.Duration
	// EngineFactory builds execution engines (nil = NewSolverEngine).
	// Tests substitute deterministic or failure-injecting engines.
	EngineFactory EngineFactory
	// Tuner, when set, maps every non-pinned job to the best-known knob
	// combination for its problem class before the engine lease (NewTuner
	// builds the standard model-seeded one). Nil serves requests exactly
	// as specified.
	Tuner *tune.Tuner
	// SpillDir is the root directory for streamed jobs' tile stores
	// ("" = a "mpdata-spill" directory under the OS temp dir). Named
	// stores (spec stream_id) live at SpillDir/stream-<id> and survive
	// their jobs; anonymous stores are private, and their directories are
	// removed as soon as they are open.
	SpillDir string
	// StreamBudgetMB is the default resident-memory budget of streamed
	// jobs whose spec leaves memory_budget_mb unset (0 = 512).
	StreamBudgetMB int
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// Server is the simulation serving subsystem: the admission queue and the
// runner-slot pool with its schedule cache behind a job Front (registry,
// drain, HTTP API). Create with NewServer, serve Handler(), stop with Drain
// or Close.
type Server struct {
	opts    Options
	front   *Front
	pool    *Pool
	queue   *queue
	metrics *Metrics
	tuner   *tune.Tuner

	mu sync.Mutex
	// streams maps a stream_id to the live job that holds its store.
	streams map[string]*Job

	running atomic.Int64

	// programs holds each (solver, options) program admission has priced
	// (programKey -> *stencil.Program), so pricing a submission builds no
	// kernels.
	programs sync.Map

	// diskBWBits is an EWMA of the disk throughput observed by completed
	// durable (named) streamed jobs (float64 bits; 0 = no observation yet).
	// It feeds the residency picker, so the tile-width/k trade tracks the
	// actual store device instead of the model's default.
	diskBWBits atomic.Uint64

	// dispatchWG tracks the dispatcher goroutines.
	dispatchWG sync.WaitGroup
}

// NewServer builds the subsystem and starts one dispatcher per runner slot.
func NewServer(opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		opts:    opts,
		queue:   newQueue(opts.QueueDepth, opts.RetryAfter),
		metrics: newMetrics(),
		tuner:   opts.Tuner,
		streams: make(map[string]*Job),
	}
	s.front = NewFront(FrontOps{
		IDPrefix: "j",
		Submit:   func(_ context.Context, spec Spec) (*Job, error) { return s.Submit(spec) },
		Withdraw: s.queue.remove,
		Position: s.queue.position,
		Settle:   s.settle,
		Shutdown: s.shutdown,
		Logf:     opts.Logf,
	})
	factory := opts.EngineFactory
	if factory == nil {
		// The default factory routes streamed specs to the out-of-core
		// engine; a custom factory (tests) owns the whole decision. Both
		// compile for the server's slot count, and resident engines borrow
		// their stage scratch from the slot that leases them.
		factory = func(ns NormSpec) (Engine, error) {
			if ns.Streamed {
				return newStreamEngine(s, ns)
			}
			return newSolverEngine(ns, s.pool.Capacity(), true)
		}
	}
	s.pool = NewPool(opts.Slots, opts.MaxCached, factory)
	for i := 0; i < s.pool.Capacity(); i++ {
		s.dispatchWG.Add(1)
		go s.dispatch()
	}
	return s
}

// Metrics exposes the server's counters (tests assert on them directly).
func (s *Server) Metrics() *Metrics { return s.metrics }

// spillDir resolves the streamed jobs' store root.
func (s *Server) spillDir() string {
	if s.opts.SpillDir != "" {
		return s.opts.SpillDir
	}
	return filepath.Join(os.TempDir(), "mpdata-spill")
}

// streamBudgetMB resolves the default streamed-job memory budget.
func (s *Server) streamBudgetMB() int {
	if s.opts.StreamBudgetMB > 0 {
		return s.opts.StreamBudgetMB
	}
	return 512
}

// diskBWEstimate returns the live disk-bandwidth EWMA in bytes/s (0 before
// any durable streamed job completed — the residency picker then uses the
// model's default device).
func (s *Server) diskBWEstimate() float64 {
	return math.Float64frombits(s.diskBWBits.Load())
}

// observeDiskBW folds one durable streamed job's measured store throughput
// into the EWMA (alpha 0.3: a few jobs converge, one outlier does not whipsaw
// the residency picker).
func (s *Server) observeDiskBW(bw float64) {
	if bw <= 0 {
		return
	}
	for {
		old := s.diskBWBits.Load()
		prev := math.Float64frombits(old)
		next := bw
		if prev > 0 {
			next = 0.7*prev + 0.3*bw
		}
		if s.diskBWBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// ReplicaStats is the JSON payload of GET /v1/stats: the cheap load/health
// snapshot a fleet router polls to maintain membership and steer
// work-stealing. A replica reporting Draining no longer accepts jobs and
// should leave the placement ring.
type ReplicaStats struct {
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	SlotsBusy     int    `json:"slots_busy"`
	SlotsTotal    int    `json:"slots_total"`
	Running       int    `json:"running"`
	Draining      bool   `json:"draining"`
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	// CacheCapacity is the idle-engine cache bound (Options.MaxCached
	// resolved): how many distinct job classes the replica keeps warm. The
	// router homes at most this many cache keys here.
	CacheCapacity int    `json:"cache_capacity"`
	Succeeded     uint64 `json:"succeeded"`
	Failed        uint64 `json:"failed"`
	// CacheBytes is the state the idle cached engines hold, and
	// SlotScratchBytes the capacity of the slots' scratch arenas.
	CacheBytes       int64 `json:"cache_bytes"`
	SlotScratchBytes int64 `json:"slot_scratch_bytes"`
}

// Stats snapshots the replica for the fleet router.
func (s *Server) Stats() ReplicaStats {
	ps := s.pool.Stats()
	return ReplicaStats{
		QueueDepth:       s.queue.depth(),
		QueueCapacity:    s.queue.maxDepth,
		SlotsBusy:        ps.Busy,
		SlotsTotal:       ps.Capacity,
		Running:          int(s.running.Load()),
		Draining:         s.front.Draining(),
		CacheHits:        ps.Hits,
		CacheMisses:      ps.Misses,
		CacheCapacity:    ps.MaxCached,
		Succeeded:        s.metrics.Succeeded.Load(),
		Failed:           s.metrics.Failed.Load(),
		CacheBytes:       ps.CacheBytes,
		SlotScratchBytes: ps.SlotScratchBytes,
	}
}

// PoolStats snapshots the slot pool.
func (s *Server) PoolStats() PoolStats { return s.pool.Stats() }

// QueueDepth returns the number of jobs waiting for admission.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// Submit validates a spec and admits it as a queued job. It returns
// ErrDraining while the server drains, an *ErrQueueFull when the queue is at
// depth, an *ErrStreamBusy when a live job holds the spec's stream_id, an
// *ErrOverMemory when a resident job's engine would not fit the machine's
// memory, or a validation error for a bad spec.
func (s *Server) Submit(spec Spec) (*Job, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if !ns.Streamed {
		if err := s.admitResident(spec.Grid, ns); err != nil {
			return nil, err
		}
	}
	if s.front.Draining() {
		return nil, ErrDraining
	}
	s.mu.Lock()
	if holder := s.streams[ns.StreamID]; holder != nil {
		s.mu.Unlock()
		return nil, &ErrStreamBusy{StreamID: ns.StreamID, Holder: holder.ID}
	}
	j := s.front.Register(spec, ns)
	if ns.StreamID != "" {
		s.streams[ns.StreamID] = j
	}
	s.mu.Unlock()

	if err := s.queue.push(j); err != nil {
		s.mu.Lock()
		delete(s.streams, ns.StreamID)
		s.mu.Unlock()
		s.front.Unregister(j)
		if qf := (*ErrQueueFull)(nil); errors.As(err, &qf) {
			s.metrics.JobRejected(ns.Solver)
		}
		return nil, err
	}
	s.metrics.JobSubmitted(ns.Solver)
	return j, nil
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) { return s.front.Job(id) }

// Status returns a job's API snapshot with its live queue position.
func (s *Server) Status(j *Job) JobStatus { return s.front.Status(j) }

// Cancel requests a job's cancellation: queued jobs are withdrawn
// immediately, running jobs are aborted mid-step through the barrier-abort
// path and finish as canceled.
func (s *Server) Cancel(j *Job, reason string) { s.front.Cancel(j, reason) }

// dispatch is one slot's job loop: pop, lease an engine, execute, release.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	for {
		j, skipped := s.queue.pop()
		for _, sk := range skipped {
			s.front.Finish(sk, sk.terminalOnCancel(), sk.CancelCause(), nil)
		}
		if j == nil {
			if len(skipped) == 0 {
				return // queue closed
			}
			continue
		}
		s.runJob(j)
	}
}

// runJob executes one admitted job on a leased engine.
func (s *Server) runJob(j *Job) {
	if !j.setRunning(time.Now()) {
		s.front.Finish(j, j.terminalOnCancel(), j.CancelCause(), nil)
		return
	}
	s.running.Add(1)
	state, errMsg, result := s.leaseAndExecute(j)
	// Off the gauge before the terminal transition, not after: whoever sees
	// the job done must not still find it counted as running.
	s.running.Add(-1)
	s.front.Finish(j, state, errMsg, result)
}

// leaseAndExecute runs a job that is already marked running and returns its
// terminal transition for the caller to perform.
func (s *Server) leaseAndExecute(j *Job) (JobState, string, *Result) {
	queueWait := j.started.Sub(j.created)
	// With a tuner, the engine lease happens under the tuned (canonical)
	// spec: the cache stores the best-known configuration for the class,
	// never the same physical engine under requested and tuned keys.
	tuned, dec := s.tuneSpec(j.ns)
	lease, err := s.pool.Acquire(j.ctx, tuned)
	if err != nil {
		if j.ctx.Err() != nil {
			return j.terminalOnCancel(), j.CancelCause(), nil
		}
		return StateFailed, err.Error(), nil
	}
	reuse, state, errMsg, result := s.executeJob(j, lease, tuned, dec, queueWait)
	// Release before the terminal transition: once a job reports done, a
	// healthy engine is already back in the cache, so an immediate follow-up
	// job with the same key hits instead of compiling a duplicate.
	lease.Release(reuse)
	return state, errMsg, result
}

// tuneSpec maps a job's spec to the configuration it should run as. Without
// a tuner (or for a pinned job) the spec passes through untouched; with one,
// even an identity decision canonicalizes the knobs (auto BlockI becomes its
// explicit width) so cache keys cannot alias.
func (s *Server) tuneSpec(ns NormSpec) (NormSpec, *tune.Decision) {
	if s.tuner == nil {
		return ns, nil
	}
	if ns.Streamed {
		// A streamed job's tunable — the residency — is picked by its
		// engine under the memory budget; the knob tuner has nothing to
		// decide (and must not rewrite the cache key away from the store).
		return ns, nil
	}
	if ns.Pin {
		s.metrics.TunerPinned.Add(1)
		return ns, nil
	}
	req, ok := requestedKnobs(ns)
	if !ok {
		return ns, nil
	}
	dec := s.tuner.Decide(ClassOf(ns), req, ns.Steps)
	return applyKnobs(ns, dec.Knobs), &dec
}

// executeJob drives the engine through the job's steps, reporting progress
// and watching the job context so a cancellation or deadline aborts an
// in-flight step through the engine's barrier-abort path. It returns whether
// the engine stayed healthy (reusable) plus the job's terminal transition,
// which the caller performs after releasing the lease. tuned is the spec the
// engine was leased under (identical to j.ns without a tuner); dec is the
// tuner's decision, nil when no tuner decided for this job.
func (s *Server) executeJob(j *Job, lease *Lease, tuned NormSpec, dec *tune.Decision, queueWait time.Duration) (reuse bool, state JobState, errMsg string, result *Result) {
	eng := lease.Engine()
	if err := eng.Reset(); err != nil {
		return false, StateFailed, err.Error(), nil
	}
	if j.ns.Profile {
		eng.SetProfiling(true)
	}

	// The watcher aborts the engine when the job context fires mid-step;
	// stopped (and joined) before the engine's fate is decided, so a
	// completion cannot race an abort into a "healthy" release.
	watcherStop := make(chan struct{})
	var watcherWG sync.WaitGroup
	watcherWG.Add(1)
	go func() {
		defer watcherWG.Done()
		select {
		case <-j.ctx.Done():
			eng.Abort(j.CancelCause())
		case <-watcherStop:
		}
	}()

	label := tuned.StrategyName()
	var runErr error
	start := time.Now()
	steps := 0
	se, streamed := eng.(StreamEngine)
	if streamed {
		// A streamed engine's dispatch unit is one whole sweep (every
		// tile one residency); progress is durable-step-granular, with
		// tile-granular events forwarded from the streamer. The latency
		// histogram uses the dedicated "streamed" label — a sweep is not
		// comparable to a resident step.
		steps = se.StepsDone() // a resumed store may already be partly done
		se.SetProgress(func(p TileProgress) {
			s.metrics.StreamTiles.Add(1)
			j.progressTiles(p.StepsDone, p.Sweep*p.Tiles+p.Tile+1, p.Sweeps*p.Tiles)
		})
		for !se.Done() {
			if j.ctx.Err() != nil {
				break
			}
			t0 := time.Now()
			if runErr = eng.Step(); runErr != nil {
				break
			}
			s.metrics.ObserveStep(streamStepLabel, time.Since(t0))
			steps = se.StepsDone()
			j.Progress(steps)
		}
	} else {
		// One engine Step is one time step.
		for steps < j.ns.Steps {
			if j.ctx.Err() != nil {
				break
			}
			t0 := time.Now()
			if runErr = eng.Step(); runErr != nil {
				break
			}
			s.metrics.ObserveStep(label, time.Since(t0))
			steps++
			j.Progress(steps)
		}
	}
	wall := time.Since(start)
	close(watcherStop)
	watcherWG.Wait()
	if streamed && runErr == nil && j.ctx.Err() == nil {
		// Scanned once, outside the step histogram and the wall time, as
		// a resident engine's Checksums is.
		runErr = se.Scan()
	}

	switch {
	case j.ctx.Err() != nil:
		// Canceled or expired — even if the abort raced a completed step,
		// the engine's barriers may be poisoned, so never reuse it.
		return false, j.terminalOnCancel(), j.CancelCause(), nil
	case runErr != nil:
		// Worker failures surface verbatim: the error carries the
		// original kernel panic (exec's sticky failure path).
		return false, StateFailed, runErr.Error(), nil
	}

	info := eng.Info()
	result = &Result{
		Checksums:       eng.Checksums(),
		Strategy:        label,
		Steps:           steps,
		WallMs:          float64(wall.Nanoseconds()) / 1e6,
		QueueMs:         float64(queueWait.Nanoseconds()) / 1e6,
		CacheHit:        lease.Hit,
		RequestedConfig: j.ns.ConfigLabel(),
		KSteps:          info.KSteps,
		Workers:         info.Workers,
		BlockI:          info.BlockI,
	}
	if steps > 0 {
		result.StepMsAvg = result.WallMs / float64(steps)
	}
	if dec != nil {
		result.TunedConfig = tuned.ConfigLabel()
		result.Tuned = dec.Tuned
		result.Explored = dec.Explore
		result.TuneReason = dec.Reason
	}
	var imbalance float64
	if j.ns.Profile {
		result.Profile = profileReport(label, eng)
		if prof := eng.Profile(); prof != nil {
			imbalance = prof.Summary().MaxImbalancePct
		}
		eng.SetProfiling(false)
	}
	if s.tuner != nil && dec != nil && steps > 0 {
		s.tuner.Observe(ClassOf(j.ns), tune.Observation{
			Knobs:        dec.Knobs,
			StepSeconds:  wall.Seconds() / float64(steps),
			ImbalancePct: imbalance,
			Steps:        steps,
			Explored:     dec.Explore,
		})
	}
	if streamed {
		rep := se.Report()
		result.Stream = rep
		if rep != nil {
			s.metrics.StreamJobs.Add(1)
			s.metrics.StreamBytesRead.Add(uint64(rep.BytesRead))
			s.metrics.StreamBytesWritten.Add(uint64(rep.BytesWritten))
			if rep.ResumedSteps > 0 {
				s.metrics.StreamResumed.Add(1)
			}
			// Only a durable store's I/O reaches the device the picker
			// prices; a scratch store is never synced and measures the
			// page cache.
			if j.ns.StreamID != "" {
				s.observeDiskBW(rep.DiskBWBytes)
			}
		}
		// An anonymous engine goes back to the pool with its seeded store;
		// a named one never does: its store's checkpoint is what makes the
		// follow-up job cheap.
		return j.ns.StreamID == "", StateSucceeded, "", result
	}
	return true, StateSucceeded, "", result
}

// terminalOnCancel maps a canceled job to its terminal state: canceled for
// client cancellations and deadlines, failed for drain-killed survivors (the
// drain contract: abort survivors and report them failed).
func (j *Job) terminalOnCancel() JobState {
	if j.drainKilled.Load() {
		return StateFailed
	}
	return StateCanceled
}

// settle books a job's terminal transition: its stream_id is free again (the
// store is closed by now: the lease was released before the transition) and
// the per-solver counters move.
func (s *Server) settle(j *Job, state JobState) {
	s.mu.Lock()
	if s.streams[j.ns.StreamID] == j {
		delete(s.streams, j.ns.StreamID)
	}
	s.mu.Unlock()
	switch state {
	case StateSucceeded:
		s.metrics.JobSucceeded(j.ns.Solver)
	case StateFailed:
		s.metrics.JobFailed(j.ns.Solver)
	case StateCanceled:
		s.metrics.JobCanceled(j.ns.Solver)
	}
}

// Drain performs the graceful shutdown contract: stop admitting, let queued
// and running jobs finish within the timeout, then abort survivors (reported
// failed, so a fleet router reroutes them) and wait for them to unwind at
// their next barrier. It returns nil when every job reached a terminal state.
func (s *Server) Drain(timeout time.Duration) error {
	return s.front.Drain(timeout, func(j *Job) {
		j.drainKilled.Store(true)
		s.front.Cancel(j, DrainAbortReason)
	})
}

// Close shuts the server down without waiting: every non-terminal job is
// canceled. Intended for tests and error paths; production uses Drain.
func (s *Server) Close() { s.front.Close("server closed") }

// shutdown stops the dispatchers and releases the pool.
func (s *Server) shutdown() {
	s.queue.close()
	s.dispatchWG.Wait()
	s.pool.Close()
}

// Draining reports whether the server has stopped admitting jobs.
func (s *Server) Draining() bool { return s.front.Draining() }

// profileReport renders the job's runtime profile in both rendered-table and
// structured form — the same per-phase breakdown mpdata-sim -profile prints.
func profileReport(label string, eng Engine) *ProfileReport {
	prof := eng.Profile()
	if prof == nil {
		return nil
	}
	rep := &ProfileReport{Table: renderProfileTable(label, prof)}
	for _, ph := range prof.Phases {
		rep.Phases = append(rep.Phases, ProfilePhase{
			Label:     ph.Label,
			ComputeMs: float64(ph.Compute.Nanoseconds()) / 1e6,
			SpinMs:    float64(ph.Spin.Nanoseconds()) / 1e6,
			ParkMs:    float64(ph.Park.Nanoseconds()) / 1e6,
		})
	}
	return rep
}

// --- HTTP API ---

// Handler returns the HTTP API: the job routes every front serves
// (Front.Handler) plus
//
//	GET  /v1/stats             replica load snapshot    -> 200 ReplicaStats
//	GET  /metrics              text exposition
func (s *Server) Handler() http.Handler {
	mux := s.front.Handler()
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ps := s.pool.Stats()
	g := gauges{
		QueueDepth:    s.queue.depth(),
		QueueCapacity: s.queue.maxDepth,
		SlotsBusy:     ps.Busy,
		SlotsTotal:    ps.Capacity,
		CacheHits:     ps.Hits,
		CacheMisses:   ps.Misses,
		CacheSize:     ps.Idle,
		CacheEvicted:  ps.Evictions,
		CacheBytes:    ps.CacheBytes,
		SlotScratch:   ps.SlotScratchBytes,
		Running:       int(s.running.Load()),
		Draining:      s.front.Draining(),
		StreamDiskBW:  s.diskBWEstimate(),
	}
	if s.tuner != nil {
		tc := s.tuner.Counters()
		g.TunerEnabled = true
		g.TunerDecisions = tc.Decisions
		g.TunerTuned = tc.Tuned
		g.TunerExplored = tc.Explored
		g.TunerSeedErrors = tc.SeedErrors
		g.TunerClasses = tc.Classes
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, g)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}
