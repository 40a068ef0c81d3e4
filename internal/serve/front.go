package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Front is the job front a Server and a fleet Router share: everything about
// a job that does not depend on whether the front executes it or places it on
// a replica. It mints ids, keeps the registry and its retention window, makes
// the terminal transition, runs the drain contract and serves the HTTP API.
// What a front does with an admitted job is its FrontOps.
type Front struct {
	ops FrontOps

	mu      sync.Mutex
	jobs    map[string]*Job // in flight, plus the finished ones retired still holds
	retired retention
	nextID  uint64

	draining atomic.Bool
	// live counts registered jobs until their terminal transition; the
	// drain waits on it.
	live         sync.WaitGroup
	shutdownOnce sync.Once
}

// FrontOps is the part of a front that differs between a server and a router.
type FrontOps struct {
	// IDPrefix starts every id the front mints: "j" on a server, "f" on the
	// router.
	IDPrefix string
	// Submit admits a spec: a server queues it, a router places it.
	Submit func(ctx context.Context, spec Spec) (*Job, error)
	// Withdraw takes a job that has not started out of the front's queue and
	// reports whether it was there; Position is a queued job's 1-based place
	// in that queue. Both are nil on a front without a queue.
	Withdraw func(*Job) bool
	Position func(*Job) int
	// Settle books a terminal transition in the front's counters before it
	// is announced.
	Settle func(j *Job, state JobState)
	// Unready, when set and returning a reason, fails /healthz with it; a
	// draining front fails it regardless.
	Unready func() string
	// Shutdown stops the front's own machinery. Drain and Close end with
	// it, once.
	Shutdown func()
	// Logf receives operational log lines.
	Logf func(format string, args ...any)
}

// NewFront builds an empty front.
func NewFront(ops FrontOps) *Front {
	return &Front{ops: ops, jobs: make(map[string]*Job)}
}

// Register mints an id for a normalized spec and enters it into the registry
// as a queued job. The caller then queues or places it, or hands it back with
// Unregister.
func (f *Front) Register(spec Spec, ns NormSpec) *Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nextID++
	j := newJob(fmt.Sprintf("%s%08d", f.ops.IDPrefix, f.nextID), spec, ns, time.Now())
	f.jobs[j.ID] = j
	f.live.Add(1)
	return j
}

// Unregister takes back a registered job its front then refused (queue full,
// no replica accepted it); it never reaches a terminal state.
func (f *Front) Unregister(j *Job) {
	f.mu.Lock()
	delete(f.jobs, j.ID)
	f.mu.Unlock()
	j.cancel(nil) // stops its deadline timer
	f.live.Done()
}

// Job looks a job up by id.
func (f *Front) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Status returns a job's API snapshot, with its live queue position while it
// is queued.
func (f *Front) Status(j *Job) JobStatus {
	st := j.status()
	if st.State == StateQueued && f.ops.Position != nil {
		st.QueuePosition = f.ops.Position(j)
	}
	return st
}

// Cancel requests a job's cancellation. A job still in the front's queue is
// withdrawn and finished at once; any other ends when whatever runs it (a
// server's engine, a router's watcher) sees its context end.
func (f *Front) Cancel(j *Job, reason string) {
	j.Cancel(reason)
	if f.ops.Withdraw != nil && f.ops.Withdraw(j) {
		f.Finish(j, j.terminalOnCancel(), j.CancelCause(), nil)
	}
}

// Finish performs a job's terminal transition and books it exactly once;
// later calls for the same job do nothing.
func (f *Front) Finish(j *Job, state JobState, errMsg string, result *Result) {
	if !j.finish(state, errMsg, result, time.Now()) {
		return
	}
	f.mu.Lock()
	if expired := f.retired.retire(j.ID); expired != "" {
		delete(f.jobs, expired)
	}
	f.mu.Unlock()
	f.ops.Settle(j, state)
	if state == StateFailed {
		f.ops.Logf("job %s failed: %s", j.ID, errMsg)
	}
	j.announce()
	f.live.Done()
}

// unfinished snapshots the registered jobs not yet terminal.
func (f *Front) unfinished() []*Job {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []*Job
	for _, j := range f.jobs {
		if !j.State().Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// Draining reports whether the front has stopped admitting jobs.
func (f *Front) Draining() bool { return f.draining.Load() }

// drainGrace is how long aborted survivors get to unwind before a drain
// fails.
const drainGrace = 30 * time.Second

// Drain performs the graceful shutdown contract: stop admitting, let every
// job reach a terminal state within timeout, then abort the survivors (abort
// is the front's survivor step) and give them drainGrace to unwind. It
// returns nil when every job ended.
func (f *Front) Drain(timeout time.Duration, abort func(*Job)) error {
	f.draining.Store(true)
	defer f.shutdown()
	done := make(chan struct{})
	go func() {
		f.live.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
	}
	survivors := f.unfinished()
	for _, j := range survivors {
		abort(j)
	}
	f.ops.Logf("drain timeout: aborted %d surviving jobs", len(survivors))
	select {
	case <-done:
		return nil
	case <-time.After(drainGrace):
		return fmt.Errorf("%d jobs did not unwind within %s of the abort", len(survivors), drainGrace)
	}
}

// Close shuts the front down without waiting for jobs to finish: every live
// job is canceled with reason. For tests and error paths; production drains.
func (f *Front) Close(reason string) {
	f.draining.Store(true)
	for _, j := range f.unfinished() {
		f.Cancel(j, reason)
	}
	f.live.Wait()
	f.shutdown()
}

func (f *Front) shutdown() { f.shutdownOnce.Do(f.ops.Shutdown) }

// TerminalRetention is how many finished jobs a process keeps answerable by
// id. Jobs in flight are always kept; of the finished ones only the most
// recent TerminalRetention are, and an older id answers 404 — a result is
// meant to be fetched soon after the job ends, and a registry that never
// forgets grows without limit in a long-lived binary.
const TerminalRetention = 4096

// retention is the FIFO window behind that bound: the ids of the most recent
// TerminalRetention finished jobs, in finish order. The zero value is ready.
type retention struct {
	ids  []string
	next int
}

// retire records a finished job's id and returns the id that left the window
// to make room ("" while the window is still filling).
func (r *retention) retire(id string) (expired string) {
	if len(r.ids) < TerminalRetention {
		r.ids = append(r.ids, id)
		return ""
	}
	expired, r.ids[r.next] = r.ids[r.next], id
	r.next = (r.next + 1) % TerminalRetention
	return expired
}

// A Rejection is an admission error that states its own HTTP answer: the
// status code, the Retry-After seconds (0: no header) and the message of the
// error envelope. Every typed refusal of a Server or a fleet Router is one,
// so one submit handler answers for both; any other error is a 400.
type Rejection interface {
	error
	Answer() (code, retryAfter int, msg string)
}

// Unavailable is the refusal of a front that cannot admit for now (503):
// Msg says why and RetryAfter is the hinted wait in seconds.
type Unavailable struct {
	Msg        string
	RetryAfter int
}

func (e Unavailable) Error() string { return e.Msg }

// Answer implements Rejection.
func (e Unavailable) Answer() (int, int, string) {
	return http.StatusServiceUnavailable, e.RetryAfter, e.Msg
}

// RetryAfterSeconds renders a backoff hint as the whole seconds of a
// Retry-After header: integer ceiling (no float drift for exact values) and
// clamped to >= 1 — "Retry-After: 0" tells clients to hammer the queue
// immediately, which is exactly what admission control exists to prevent.
func RetryAfterSeconds(d time.Duration) int {
	if d <= 0 {
		return 1
	}
	return int((d + time.Second - 1) / time.Second)
}

// --- HTTP API ---

// Handler returns the job API every front serves, a server and a router
// alike, so serveclient points at either interchangeably:
//
//	POST /v1/jobs              submit a job spec        -> 202 JobStatus
//	GET  /v1/jobs/{id}         status + queue position  -> 200 JobStatus
//	GET  /v1/jobs/{id}/events  SSE progress; "done" carries the result
//	GET  /v1/jobs/{id}/result  result once terminal     -> 200 JobStatus
//	POST /v1/jobs/{id}/cancel  cancel queued or running -> 202 JobStatus
//	GET  /healthz              200 ok / 503 draining or unready
//
// Each front mounts its own /metrics, and its other routes, on the returned
// mux.
func (f *Front) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", f.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", f.handleCancel)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := f.ops.Submit(r.Context(), spec)
	if err != nil {
		code, retryAfter, msg := http.StatusBadRequest, 0, err.Error()
		var rej Rejection
		if errors.As(err, &rej) {
			code, retryAfter, msg = rej.Answer()
		}
		if retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
		}
		WriteJSON(w, code, apiError{Error: msg})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	WriteJSON(w, http.StatusAccepted, f.Status(j))
}

func (f *Front) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := f.Job(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return nil, false
	}
	return j, true
}

func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := f.jobOr404(w, r); ok {
		WriteJSON(w, http.StatusOK, f.Status(j))
	}
}

func (f *Front) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobOr404(w, r)
	if !ok {
		return
	}
	st := f.Status(j)
	if !st.State.Terminal() {
		WriteJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job %s is %s, not finished", j.ID, st.State)})
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (f *Front) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobOr404(w, r)
	if !ok {
		return
	}
	f.Cancel(j, "canceled by client")
	WriteJSON(w, http.StatusAccepted, f.Status(j))
}

func (f *Front) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobOr404(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, unsubscribe := j.subscribe()
	defer unsubscribe()

	writeEvent := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Opening snapshot so late subscribers see where the job stands.
	st := f.Status(j)
	if !writeEvent(Event{Type: "state", State: st.State, Step: st.Step, Steps: st.Steps, Error: st.Error}) {
		return
	}
	if st.State.Terminal() {
		writeEvent(doneEvent(st))
		return
	}
	for {
		select {
		case ev := <-ch:
			if !writeEvent(ev) {
				return
			}
			if ev.Type == "done" {
				return
			}
		case <-j.Done():
			// Flush any buffered events, then make sure a terminal
			// event is delivered even if the buffer dropped it.
			for len(ch) > 0 {
				if ev := <-ch; !writeEvent(ev) || ev.Type == "done" {
					return
				}
			}
			writeEvent(doneEvent(f.Status(j)))
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (f *Front) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	reason := ""
	if f.draining.Load() {
		reason = "draining"
	} else if f.ops.Unready != nil {
		reason = f.ops.Unready()
	}
	if reason != "" {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
		return
	}
	fmt.Fprintln(w, "ok")
}
