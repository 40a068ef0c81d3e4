package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle state of a job. The FSM is strictly forward:
// queued -> running -> {succeeded, failed, canceled}, with queued -> canceled
// for jobs canceled (or expired) before admission.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// Event is one SSE progress message of GET /v1/jobs/{id}/events.
type Event struct {
	// Type is "state" (lifecycle transition), "progress" (a completed
	// step) or "done" (terminal summary; the stream ends after it).
	Type string `json:"type"`
	// State is the job state at emission.
	State JobState `json:"state"`
	// Step is the number of completed steps; Steps the requested total.
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// Tile/Tiles report a streamed job's tile-granular progress: tile
	// residencies completed over the whole run's total (zero on resident
	// jobs, whose progress is step-granular only).
	Tile  int `json:"tile,omitempty"`
	Tiles int `json:"tiles,omitempty"`
	// Error carries the failure (or cancellation reason) verbatim.
	Error string `json:"error,omitempty"`
	// Result rides on the "done" event of a succeeded job, so a follower
	// (the fleet router) needs no second request to fetch it.
	Result *Result `json:"result,omitempty"`
}

// doneEvent is the terminal event of a job whose final status is st.
func doneEvent(st JobStatus) Event {
	return Event{Type: "done", State: st.State, Step: st.Step, Steps: st.Steps, Error: st.Error, Result: st.Result}
}

// Result is the payload of GET /v1/jobs/{id}/result for a finished job.
type Result struct {
	// Checksums summarize the final solution field.
	Checksums Checksums `json:"checksums"`
	// Strategy is the executed strategy's report label.
	Strategy string `json:"strategy"`
	// Steps is the number of completed time steps.
	Steps int `json:"steps"`
	// WallMs is the job's running wall time (admission to finish).
	WallMs float64 `json:"wall_ms"`
	// StepMsAvg is the mean per-step latency.
	StepMsAvg float64 `json:"step_ms_avg"`
	// QueueMs is the time the job waited for admission.
	QueueMs float64 `json:"queue_ms"`
	// CacheHit reports whether the job reused a cached compiled schedule.
	CacheHit bool `json:"cache_hit"`
	// RequestedConfig and TunedConfig name the configuration the client
	// asked for and the one the job actually ran (advisor-style labels);
	// TunedConfig is present only when a tuner decided for the job.
	RequestedConfig string `json:"requested_config,omitempty"`
	TunedConfig     string `json:"tuned_config,omitempty"`
	// Tuned reports that the tuner substituted a different knob
	// combination than requested; Explored that the job ran as an
	// exploration probe rather than the best-known configuration.
	Tuned    bool `json:"tuned,omitempty"`
	Explored bool `json:"explored,omitempty"`
	// TuneReason explains the tuner's choice: "measured", "model",
	// "explore", "requested", or a seed error.
	TuneReason string `json:"tune_reason,omitempty"`
	// KSteps is the temporal block one engine Run advanced (EngineInfo): 1
	// for a resident job, the residency k for a streamed one.
	KSteps int `json:"ksteps,omitempty"`
	// Workers and BlockI are the executed shape (EngineInfo): each island's
	// team size on the host and the compiled (3+1)D block width.
	Workers int `json:"workers,omitempty"`
	BlockI  int `json:"block_i,omitempty"`
	// Profile, when the spec requested it, embeds the same per-phase
	// breakdown mpdata-sim -profile prints.
	Profile *ProfileReport `json:"profile,omitempty"`
	// Stream, on streamed jobs, reports the out-of-core run: the chosen
	// residency, bytes moved and the measured compute/I-O overlap.
	Stream *StreamReport `json:"stream,omitempty"`
}

// ProfileReport is the runtime profile of a job: the rendered table plus the
// structured per-phase rows.
type ProfileReport struct {
	// Table is the rendered perf.ProfileTable text.
	Table string `json:"table"`
	// Phases lists the per-phase totals in execution order.
	Phases []ProfilePhase `json:"phases"`
}

// ProfilePhase is one phase row of a job profile.
type ProfilePhase struct {
	Label     string  `json:"label"`
	ComputeMs float64 `json:"compute_ms"`
	SpinMs    float64 `json:"spin_ms"`
	ParkMs    float64 `json:"park_ms"`
}

// JobStatus is the wire form of GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Step/Steps report progress (completed / requested).
	Step  int `json:"step"`
	Steps int `json:"steps"`
	// QueuePosition is the 1-based position among queued jobs (0 once
	// admitted).
	QueuePosition int `json:"queue_position,omitempty"`
	// Error carries a failed (or canceled) job's reason verbatim.
	Error string `json:"error,omitempty"`
	// Result is present on succeeded jobs.
	Result *Result `json:"result,omitempty"`
	Spec   Spec    `json:"spec"`
	// Replica and Reroutes are filled by the fleet router (docs/FLEET.md):
	// the replica the job last ran on and the number of replica-fault
	// re-placements it survived. Always empty/zero on a single server.
	Replica  string `json:"replica,omitempty"`
	Reroutes int    `json:"reroutes,omitempty"`
}

// Job is one admitted simulation request moving through the FSM.
type Job struct {
	ID   string
	Spec Spec
	ns   NormSpec

	// ctx governs the job's deadline/cancellation; cancel aborts it.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    JobState
	step     int
	errMsg   string
	result   *Result
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan Event]struct{}

	// done is closed on the terminal transition.
	done chan struct{}

	// drainKilled marks a job aborted by the drain timeout; its terminal
	// state is failed (the drain contract) rather than canceled.
	drainKilled atomic.Bool
}

// newJob builds a queued job with its cancellation context.
func newJob(id string, spec Spec, ns NormSpec, now time.Time) *Job {
	ctx := context.Background()
	var cancelTimeout context.CancelFunc
	if ns.TimeoutMs > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, time.Duration(ns.TimeoutMs)*time.Millisecond)
	}
	jctx, cancel := context.WithCancelCause(ctx)
	j := &Job{
		ID:      id,
		Spec:    spec,
		ns:      ns,
		ctx:     jctx,
		state:   StateQueued,
		created: now,
		subs:    make(map[chan Event]struct{}),
		done:    make(chan struct{}),
	}
	j.cancel = func(cause error) {
		cancel(cause)
		if cancelTimeout != nil {
			cancelTimeout()
		}
	}
	return j
}

// Cancel requests cancellation: a queued job is withdrawn at admission, a
// running job is aborted mid-step through the engine's barrier-abort path.
func (j *Job) Cancel(reason string) {
	j.cancel(fmt.Errorf("%s", reason))
}

// Done returns the channel closed at the terminal transition.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// cancelCause extracts the cancellation reason of the job's context.
func (j *Job) cancelCause() string {
	cause := context.Cause(j.ctx)
	if cause == nil {
		cause = j.ctx.Err()
	}
	if cause == nil {
		return "canceled"
	}
	if cause == context.DeadlineExceeded {
		return "deadline exceeded"
	}
	return cause.Error()
}

// setRunning transitions queued -> running; false if the job is no longer
// queued (canceled before admission).
func (j *Job) setRunning(now time.Time) bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = now
	j.mu.Unlock()
	j.publish(Event{Type: "state", State: StateRunning, Steps: j.ns.Steps})
	return true
}

// progress records a completed step and notifies subscribers.
func (j *Job) progress(step int) {
	j.mu.Lock()
	j.step = step
	j.mu.Unlock()
	j.publish(Event{Type: "progress", State: StateRunning, Step: step, Steps: j.ns.Steps})
}

// progressTiles records a streamed job's tile-granular progress: step counts
// completed whole steps (durable sweeps), tile/tiles the completed residencies
// over the run's total.
func (j *Job) progressTiles(step, tile, tiles int) {
	j.mu.Lock()
	j.step = step
	j.mu.Unlock()
	j.publish(Event{Type: "progress", State: StateRunning, Step: step, Steps: j.ns.Steps, Tile: tile, Tiles: tiles})
}

// finish performs the terminal transition exactly once, reporting whether
// this call did it; extra calls (e.g. a cancel racing a natural completion)
// are ignored. The transition is not announced yet: the server settles its
// counters and registry first and then calls announce, so whoever wakes on
// Done or on the "done" event finds them already consistent with it.
func (j *Job) finish(state JobState, errMsg string, result *Result, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	j.finished = now
	return true
}

// announce publishes the terminal event and closes Done, once, after finish.
func (j *Job) announce() {
	j.publish(doneEvent(j.status()))
	close(j.done)
}

// publish fans an event out to the subscribers. Slow subscribers drop
// intermediate events (their channel is buffered); the terminal event is
// never lost because the SSE handler also watches Done.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe registers an event channel; the returned func unsubscribes.
func (j *Job) subscribe() (chan Event, func()) {
	ch := make(chan Event, 16)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// status snapshots the job for the API (queue position filled by the
// server).
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:     j.ID,
		State:  j.state,
		Step:   j.step,
		Steps:  j.ns.Steps,
		Error:  j.errMsg,
		Result: j.result,
		Spec:   j.Spec,
	}
}

// TerminalRetention is how many finished jobs a process keeps answerable by
// id. Jobs in flight are always kept; of the finished ones only the most
// recent TerminalRetention are, and an older id answers 404 — a result is
// meant to be fetched soon after the job ends, and a registry that never
// forgets grows without limit in a long-lived binary. The server and the
// fleet router apply the same bound.
const TerminalRetention = 4096

// Retention is the FIFO window behind that bound: the ids of the most recent
// TerminalRetention finished jobs, in finish order. The zero value is ready.
type Retention struct {
	ids  []string
	next int
}

// Retire records a finished job's id and returns the id that left the window
// to make room ("" while the window is still filling).
func (r *Retention) Retire(id string) (expired string) {
	if len(r.ids) < TerminalRetention {
		r.ids = append(r.ids, id)
		return ""
	}
	expired, r.ids[r.next] = r.ids[r.next], id
	r.next = (r.next + 1) % TerminalRetention
	return expired
}
