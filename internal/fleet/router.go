// Package fleet is the sharded serving layer: a router/coordinator that
// consistent-hashes jobs by their engine CacheKey across N mpdata-serve
// replicas. Cache affinity lifts the paper's shared-cache locality argument
// from cores to replicas: all jobs with one compiled-schedule key land on the
// same home replica, so a warm engine exists *somewhere* in the fleet rather
// than being recompiled everywhere. Saturated homes overflow to ring
// successors (work stealing), fleet-wide saturation surfaces as one honest
// aggregate 429, and replica faults — a replica dying or drain-aborting
// mid-job — reroute the affected jobs to surviving replicas and re-run them,
// so killing a replica under load loses nothing.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// ErrNoReplicas rejects submissions when no healthy replica is reachable
// (HTTP 503 at the API).
var ErrNoReplicas = errors.New("fleet: no healthy replica reachable")

// ErrDraining rejects submissions while the router drains (HTTP 503).
var ErrDraining = errors.New("fleet: router is draining, not admitting jobs")

// BusyError is the aggregate backpressure rejection: every healthy replica
// refused the job with a 429. RetryAfter is the honest fleet-wide hint — the
// minimum of the replica hints, since the fleet can accept again as soon as
// the soonest replica can.
type BusyError struct {
	Replicas   int
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("fleet: all %d healthy replicas saturated, retry after %s", e.Replicas, e.RetryAfter)
}

// Options configures a Router. The zero value of every field selects the
// documented default.
type Options struct {
	// Replicas are the mpdata-serve base URLs ("http://host:port").
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (0 = 64).
	VNodes int
	// HealthInterval is the membership probe period (0 = 250ms).
	HealthInterval time.Duration
	// FailThreshold is the consecutive probe/transport failures that take
	// a replica out of the placement ring (0 = 2).
	FailThreshold int
	// PollInterval is the fallback pause (0 = 50ms). A job's completion is
	// pushed over its replica's event stream; only when that stream cannot
	// be opened or breaks does the watcher ask for the job's status, and
	// this is how long it then waits before trying the stream again.
	PollInterval time.Duration
	// PollFailLimit is the consecutive failed status requests that declare
	// the placement dead and reroute the job (0 = 3).
	PollFailLimit int
	// MaxReroutes bounds the replica-fault re-placements per job (0 = 3);
	// past it the job is reported failed — terminal, never lost.
	MaxReroutes int
	// Backoff is the admission retry policy used while re-placing rerouted
	// jobs into a saturated fleet (zero value = serveclient defaults).
	Backoff serveclient.BackoffPolicy
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = 250 * time.Millisecond
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 2
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.PollFailLimit <= 0 {
		o.PollFailLimit = 3
	}
	if o.MaxReroutes <= 0 {
		o.MaxReroutes = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Router is the fleet coordinator: health-checked membership, the consistent
// hash ring, the routed-job registry and the HTTP API. Create with NewRouter,
// serve Handler(), stop with Drain or Close.
type Router struct {
	opts    Options
	metrics *Metrics

	mu      sync.Mutex
	members map[string]*member
	ring    *ring           // healthy members only
	homes   *homes          // sticky, capacity-aware key→home choices over the ring
	jobs    map[string]*Job // in flight, plus the finished ones retired still holds
	retired serve.Retention
	nextID  uint64

	inflight atomic.Int64
	draining atomic.Bool

	jobsWG   sync.WaitGroup
	healthWG sync.WaitGroup
	stop     chan struct{}

	closeOnce sync.Once
}

// NewRouter builds the coordinator, probes every replica once — so the first
// placement already knows each one's cache capacity — and starts the
// membership health loop. An unreachable replica delays it by at most one
// HealthInterval.
func NewRouter(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica URL is required")
	}
	r := &Router{
		opts:    opts,
		metrics: &Metrics{},
		members: make(map[string]*member, len(opts.Replicas)),
		homes:   newHomes(),
		jobs:    make(map[string]*Job),
		stop:    make(chan struct{}),
	}
	for _, name := range opts.Replicas {
		name = strings.TrimRight(strings.TrimSpace(name), "/")
		if name == "" {
			continue
		}
		if _, dup := r.members[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %s", name)
		}
		r.members[name] = newMember(name)
	}
	if len(r.members) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica URL is required")
	}
	r.rebuildRing()
	r.probeAll()
	r.healthWG.Add(1)
	go r.healthLoop()
	return r, nil
}

// Metrics exposes the router's counters (tests assert on them directly).
func (r *Router) Metrics() *Metrics { return r.metrics }

// memberList snapshots the membership.
func (r *Router) memberList() []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		out = append(out, m)
	}
	return out
}

// rebuildRing recomputes the placement ring over the healthy members.
func (r *Router) rebuildRing() {
	r.mu.Lock()
	defer r.mu.Unlock()
	var healthy []string
	for name, m := range r.members {
		if m.Healthy() {
			healthy = append(healthy, name)
		}
	}
	sort.Strings(healthy)
	r.ring = newRing(healthy, r.opts.VNodes)
}

// healthyCount returns (healthy, total) members.
func (r *Router) healthyCount() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.members {
		if m.Healthy() {
			n++
		}
	}
	return n, len(r.members)
}

// placementOrder resolves the key to live members: its home first — the ring
// owner, or the successor the homes table settled the key on because the
// owner's engine cache was full — then the other ring successors in order as
// the work-stealing fallbacks.
func (r *Router) placementOrder(key uint64) []*member {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.ring.successors(key, len(r.members))
	home := r.homes.resolve(key, names, func(name string) int {
		stats, _ := r.members[name].Stats()
		return stats.CacheCapacity
	})
	out := make([]*member, 0, len(names))
	if home != "" {
		out = append(out, r.members[home])
	}
	for _, n := range names {
		if n != home {
			out = append(out, r.members[n])
		}
	}
	return out
}

// affinityKey hashes a normalized spec's engine identity onto the ring: the
// serve.CacheKey value it holds, whole, so no field of the identity can be
// missing from the hash. Jobs that would lease the same cached engine share a
// hash point and therefore a home replica, which is what keeps the fleet-wide
// engine-cache hit rate at the single-server level.
func affinityKey(ns serve.NormSpec) uint64 {
	return hashString(fmt.Sprintf("%v", ns.Key()))
}

// Submit validates a spec, admits it as a routed job and synchronously
// places it on a replica: the home replica by cache affinity, or a ring
// successor when the home queue is saturated (work stealing). It returns
// ErrDraining while the router drains, *BusyError when every healthy replica
// rejected the job with backpressure, ErrNoReplicas when none was reachable,
// or a validation error for a bad spec. On success a watcher goroutine
// follows the job to its terminal state, rerouting on replica faults.
func (r *Router) Submit(ctx context.Context, spec serve.Spec) (*Job, error) {
	ns, err := spec.Admit()
	if err != nil {
		return nil, err
	}
	if r.draining.Load() {
		return nil, ErrDraining
	}

	key := affinityKey(ns)
	r.mu.Lock()
	r.nextID++
	id := fmt.Sprintf("f%08d", r.nextID)
	j := newFleetJob(id, spec, key)
	r.jobs[id] = j
	r.mu.Unlock()

	m, st, err := r.placeOnce(ctx, j)
	if err != nil {
		r.mu.Lock()
		delete(r.jobs, id)
		r.mu.Unlock()
		if errors.As(err, new(*BusyError)) {
			r.metrics.Rejected.Add(1)
		}
		return nil, err
	}
	j.place(m.name, st.ID)
	r.metrics.Submitted.Add(1)
	r.inflight.Add(1)
	r.jobsWG.Add(1)
	go r.watch(j)
	return j, nil
}

// placeOnce walks the job's affinity order and submits to the first replica
// that accepts. Every-replica-429 aggregates into *BusyError carrying the
// minimum Retry-After hint; unreachable/draining replicas are skipped (and
// struck toward their fail threshold); no candidates at all is ErrNoReplicas.
func (r *Router) placeOnce(ctx context.Context, j *Job) (*member, serve.JobStatus, error) {
	order := r.placementOrder(j.key)
	if len(order) == 0 {
		return nil, serve.JobStatus{}, ErrNoReplicas
	}
	var (
		busy    int
		minHint time.Duration = -1
	)
	for i, m := range order {
		mctx, release := m.whileUp(ctx)
		st, err := m.client.Submit(mctx, j.Spec)
		release()
		if err == nil {
			r.metrics.Placements.Add(1)
			if i > 0 {
				r.metrics.Steals.Add(1)
			}
			return m, st, nil
		}
		if ctx.Err() != nil {
			return nil, serve.JobStatus{}, ctx.Err()
		}
		var apiErr *serveclient.APIError
		switch {
		case errors.As(err, &apiErr) && apiErr.StatusCode == 429:
			busy++
			if minHint < 0 || apiErr.RetryAfter < minHint {
				minHint = apiErr.RetryAfter
			}
		case errors.As(err, &apiErr) && apiErr.StatusCode == 503:
			// Draining replica: it will never accept; the health loop will
			// drop it from the ring shortly.
			continue
		case errors.As(err, &apiErr):
			// Permanent rejection (the router validated the spec, so this
			// is a replica-side contract violation): surface it.
			return nil, serve.JobStatus{}, err
		default:
			// Transport error: strike the member so a dead replica leaves
			// the ring after FailThreshold strikes, then try the next one.
			if m.fault(r.opts.FailThreshold) {
				r.opts.Logf("replica %s unreachable during placement: %v", m.name, err)
				r.rebuildRing()
			}
		}
	}
	if busy > 0 {
		if minHint < time.Second {
			minHint = time.Second // honest floor: never tell clients to hammer
		}
		return nil, serve.JobStatus{}, &BusyError{Replicas: busy, RetryAfter: minHint}
	}
	return nil, serve.JobStatus{}, ErrNoReplicas
}

// watch follows one routed job to its terminal state: one placement after
// another, classifying how each ended, forwarding cancellation, and rerouting
// on replica faults. It is the only goroutine that transitions the job, so
// reroutes are sequential and the terminal transition is unique.
func (r *Router) watch(j *Job) {
	defer r.jobsWG.Done()
	defer r.inflight.Add(-1)

	for {
		memberName, remoteID := j.placement()
		st, err := r.follow(j, r.memberByName(memberName), remoteID)
		var fault string
		switch {
		case j.ctx.Err() != nil:
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return
		case err != nil:
			fault = fmt.Sprintf("replica %s lost (last error: %v)", memberName, err)
		case st.State == serve.StateSucceeded:
			if st.Result != nil {
				if st.Result.CacheHit {
					r.metrics.CacheHits.Add(1)
				} else {
					r.metrics.CacheMisses.Add(1)
				}
			}
			r.finishJob(j, serve.StateSucceeded, "", st.Result)
			return
		case st.State == serve.StateFailed && strings.Contains(st.Error, serve.DrainAbortReason):
			// The replica's drain aborted the job — a replica fault, not a
			// job failure: re-run it elsewhere.
			fault = fmt.Sprintf("replica %s drain-aborted the job", memberName)
		case st.State == serve.StateFailed:
			r.finishJob(j, serve.StateFailed, st.Error, nil)
			return
		case strings.Contains(st.Error, "deadline"):
			// Canceled by the job's own deadline: honest terminal cancellation.
			r.finishJob(j, serve.StateCanceled, st.Error, nil)
			return
		default:
			// Canceled by a replica shutdown the job did not ask for.
			fault = fmt.Sprintf("replica %s canceled the job during shutdown (%s)", memberName, st.Error)
		}
		if !r.reroute(j, fault) {
			return
		}
	}
}

// follow watches one placement until the replica-side job is terminal and
// returns that final status; an error means the placement is lost — the
// replica died, restarted without the job or was marked down — or the routed
// job itself was canceled (j.ctx says which).
//
// Completion is pushed: the replica's event stream is opened right after
// placement, its progress events are folded into the routed job, and its
// "done" event carries the final state and result. A status request is made
// only when the stream was refused or ended without "done"; it tells a dead
// replica (transport errors, counted toward PollFailLimit and struck against
// the member), a restarted one (404) and a front without event streams (the
// job's status comes back fine) apart, and after the PollInterval pause the
// stream is tried again.
func (r *Router) follow(j *Job, m *member, remoteID string) (serve.JobStatus, error) {
	ctx, release := m.whileUp(j.ctx)
	defer release()

	fails := 0
	for {
		var done *serve.Event
		_ = m.client.Events(ctx, remoteID, func(ev serve.Event) bool {
			j.progress(ev.Step)
			if ev.Type == "done" {
				done = &ev
			}
			return true
		})
		// A "done" that says succeeded but carries no result comes from a
		// replica older than the field: fetch the result the old way.
		if done != nil && (done.State != serve.StateSucceeded || done.Result != nil) {
			return serve.JobStatus{State: done.State, Step: done.Step, Error: done.Error, Result: done.Result}, nil
		}

		st, err := m.client.Status(ctx, remoteID)
		var apiErr *serveclient.APIError
		answered := errors.As(err, &apiErr) // the replica spoke HTTP, if only to refuse
		switch {
		case err == nil && st.State.Terminal():
			return st, nil
		case err == nil:
			j.progress(st.Step)
			fails = 0
		case ctx.Err() != nil:
			return st, context.Cause(ctx)
		case answered && apiErr.StatusCode == 404:
			// The replica restarted without the job: a fault, not a miss.
			return st, err
		case !answered:
			// Transport error: strike toward the member's threshold.
			if m.fault(r.opts.FailThreshold) {
				r.opts.Logf("replica %s unreachable while watching %s: %v", m.name, j.ID, err)
				r.rebuildRing()
			}
			fails++
		default:
			fails++ // 5xx etc: count, tolerate transients
		}
		if err != nil && (fails >= r.opts.PollFailLimit || !m.Healthy()) {
			return st, err
		}
		if serveclient.SleepContext(ctx, r.opts.PollInterval) != nil {
			return st, context.Cause(ctx)
		}
	}
}

// reroute re-places a job after a replica fault, retrying saturated fleets
// under the shared backoff policy. It reports true when the job is running
// somewhere again; on false the job has reached a terminal state (reroute
// budget or admission attempts exhausted, or canceled mid-backoff) — either
// way the job is never silently dropped.
func (r *Router) reroute(j *Job, why string) bool {
	n := j.noteReroute()
	r.metrics.Rerouted.Add(1)
	if n > r.opts.MaxReroutes {
		r.finishJob(j, serve.StateFailed,
			fmt.Sprintf("fleet: job exceeded %d reroutes: %s", r.opts.MaxReroutes, why), nil)
		return false
	}
	r.opts.Logf("rerouting job %s (attempt %d/%d): %s", j.ID, n, r.opts.MaxReroutes, why)

	policy := r.opts.Backoff
	attempts := policy.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	for attempt := 0; attempt < attempts; attempt++ {
		if j.ctx.Err() != nil {
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return false
		}
		m, st, err := r.placeOnce(j.ctx, j)
		if err == nil {
			j.place(m.name, st.ID)
			return true
		}
		var hint time.Duration
		var busyErr *BusyError
		switch {
		case errors.As(err, &busyErr):
			hint = busyErr.RetryAfter
		case errors.Is(err, ErrNoReplicas):
			// Wait out a health interval: a replica may come back or a
			// fresh one may be marked healthy again.
			hint = r.opts.HealthInterval
		default:
			if j.ctx.Err() != nil {
				r.cancelRemote(j)
				r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
				return false
			}
			r.finishJob(j, serve.StateFailed, fmt.Sprintf("fleet: re-placement failed: %v", err), nil)
			return false
		}
		if serveclient.SleepContext(j.ctx, policy.Delay(attempt, hint)) != nil {
			r.cancelRemote(j)
			r.finishJob(j, serve.StateCanceled, cancelCause(j.ctx), nil)
			return false
		}
	}
	r.finishJob(j, serve.StateFailed,
		fmt.Sprintf("fleet: no replica accepted the rerouted job after %d attempts: %s", attempts, why), nil)
	return false
}

// cancelRemote best-effort cancels the job's current placement so an
// abandoned attempt does not keep burning a replica slot.
func (r *Router) cancelRemote(j *Job) {
	memberName, remoteID := j.placement()
	if remoteID == "" {
		return
	}
	m := r.memberByName(memberName)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = m.client.Cancel(ctx, remoteID)
}

// memberByName looks a member up; it always exists (membership is static).
func (r *Router) memberByName(name string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[name]
}

// finishJob performs the terminal transition and bumps the counters exactly
// once.
func (r *Router) finishJob(j *Job, state serve.JobState, errMsg string, result *serve.Result) {
	if !j.finish(state, errMsg, result) {
		return
	}
	r.mu.Lock()
	if expired := r.retired.Retire(j.ID); expired != "" {
		delete(r.jobs, expired)
	}
	r.mu.Unlock()
	switch state {
	case serve.StateSucceeded:
		r.metrics.Succeeded.Add(1)
	case serve.StateFailed:
		r.metrics.Failed.Add(1)
		r.opts.Logf("job %s failed: %s", j.ID, errMsg)
	case serve.StateCanceled:
		r.metrics.Canceled.Add(1)
	}
	// Last: whoever wakes on Done finds the counters and registry settled.
	close(j.done)
}

// cancelCause extracts the cancellation reason of a job context.
func cancelCause(ctx context.Context) string {
	cause := context.Cause(ctx)
	if cause == nil {
		cause = ctx.Err()
	}
	if cause == nil {
		return "canceled"
	}
	if cause == context.DeadlineExceeded {
		return "deadline exceeded"
	}
	return cause.Error()
}

// Job looks a routed job up by id.
func (r *Router) Job(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Status returns a job's API snapshot.
func (r *Router) Status(j *Job) serve.JobStatus { return j.status() }

// Cancel requests a routed job's cancellation; the watcher forwards it to
// the replica currently running the job.
func (r *Router) Cancel(j *Job, reason string) { j.Cancel(reason) }

// Draining reports whether the router has stopped admitting jobs.
func (r *Router) Draining() bool { return r.draining.Load() }

// Drain performs the graceful shutdown contract: stop admitting, let routed
// jobs reach terminal states within the timeout, then cancel survivors and
// wait for their watchers to unwind.
func (r *Router) Drain(timeout time.Duration) error {
	r.draining.Store(true)
	done := make(chan struct{})
	go func() {
		r.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		survivors := 0
		r.mu.Lock()
		jobs := make([]*Job, 0, len(r.jobs))
		for _, j := range r.jobs {
			jobs = append(jobs, j)
		}
		r.mu.Unlock()
		for _, j := range jobs {
			if !j.State().Terminal() {
				survivors++
				j.Cancel("aborted by router drain")
			}
		}
		r.opts.Logf("drain timeout: canceled %d surviving jobs", survivors)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			r.shutdown()
			return fmt.Errorf("fleet: drain: %d jobs did not unwind after cancel", survivors)
		}
	}
	r.shutdown()
	return nil
}

// Close shuts the router down without waiting for jobs to finish naturally:
// every non-terminal job is canceled. Intended for tests and error paths.
func (r *Router) Close() {
	r.draining.Store(true)
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.jobs))
	for _, j := range r.jobs {
		jobs = append(jobs, j)
	}
	r.mu.Unlock()
	for _, j := range jobs {
		if !j.State().Terminal() {
			j.Cancel("router closed")
		}
	}
	r.jobsWG.Wait()
	r.shutdown()
}

// shutdown stops the health loop and drops the members' idle connections
// (idempotent).
func (r *Router) shutdown() {
	r.closeOnce.Do(func() {
		close(r.stop)
		r.healthWG.Wait()
		for _, m := range r.memberList() {
			m.close()
		}
	})
}
