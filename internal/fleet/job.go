package fleet

import (
	"context"
	"fmt"
	"sync"

	"islands/internal/serve"
)

// Job is one routed job: the router-side FSM mirroring the replica states
// (serve.JobState), plus the placement the watcher is currently following.
// The FSM transitions to a terminal state exactly once no matter how many
// replicas the job visits — a reroute replaces the placement, never the job.
type Job struct {
	ID   string
	Spec serve.Spec

	// key is the consistent-hash point of the job's engine CacheKey.
	key uint64

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu       sync.Mutex
	state    serve.JobState
	step     int
	errMsg   string
	result   *serve.Result
	replica  string // member name currently (or last) running the job
	remoteID string // replica-side job id of the current placement
	reroutes int    // replica faults survived

	done chan struct{}
}

func newFleetJob(id string, spec serve.Spec, key uint64) *Job {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &Job{
		ID:     id,
		Spec:   spec,
		key:    key,
		ctx:    ctx,
		cancel: cancel,
		state:  serve.StateQueued,
		done:   make(chan struct{}),
	}
}

// Cancel requests the job's cancellation; the watcher forwards it to the
// current replica and finishes the job canceled.
func (j *Job) Cancel(reason string) { j.cancel(fmt.Errorf("%s", reason)) }

// Done returns the channel closed at the terminal transition.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current state.
func (j *Job) State() serve.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// place records a (re)placement: the job is running on member as remoteID.
func (j *Job) place(memberName, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.replica = memberName
	j.remoteID = remoteID
	j.state = serve.StateRunning
}

// placement returns the member name and replica-side id the watcher follows.
func (j *Job) placement() (memberName, remoteID string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replica, j.remoteID
}

// noteReroute counts a survived replica fault and reports the new total.
func (j *Job) noteReroute() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.reroutes++
	return j.reroutes
}

// progress folds a replica's step count into the router-side view.
func (j *Job) progress(step int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if step > j.step {
		j.step = step
	}
}

// finish performs the terminal transition exactly once, reporting whether
// this call did it — the exactly-once guarantee the failure-injection test
// asserts (a replica completing a job the router already gave up on cannot
// double-count). Done is closed by the router, after its own bookkeeping.
func (j *Job) finish(state serve.JobState, errMsg string, result *serve.Result) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.result = result
	return true
}

// status snapshots the job in the single-server wire format (plus the fleet
// extras), so serveclient works identically against a router and a replica.
func (j *Job) status() serve.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return serve.JobStatus{
		ID:       j.ID,
		State:    j.state,
		Step:     j.step,
		Steps:    j.Spec.Steps,
		Error:    j.errMsg,
		Result:   j.result,
		Spec:     j.Spec,
		Replica:  j.replica,
		Reroutes: j.reroutes,
	}
}
