package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// Handler returns the router's HTTP API. It speaks the same wire dialect as
// a single replica — serveclient (and therefore mpdata-load) points at a
// router or a replica interchangeably:
//
//	POST /v1/jobs              submit a job spec            -> 202 JobStatus
//	GET  /v1/jobs/{id}         routed status + placement    -> 200 JobStatus
//	GET  /v1/jobs/{id}/result  result once terminal         -> 200 JobStatus
//	POST /v1/jobs/{id}/cancel  cancel a routed job          -> 202 JobStatus
//	GET  /v1/fleet             membership + per-replica load -> 200 JSON
//	GET  /metrics              fleet text exposition
//	GET  /healthz              200 with >= 1 healthy replica, else 503
//
// There is no events route: the router is itself the follower of each
// replica's SSE stream (GET /v1/jobs/{id}/events on the replica pushes
// progress and the terminal "done" with its result, see Router.follow), and
// folds what it hears into the routed job, so a client polling GET
// /v1/jobs/{id} here sees a step or a completion as soon as the replica
// reported it. Finished jobs stay answerable for the most recent
// serve.TerminalRetention of them; an older id is a 404.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", r.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", r.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", r.handleCancel)
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	return mux
}

// apiError is the JSON error envelope (same shape as the replica API).
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec serve.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("bad job spec: %v", err)})
		return
	}
	j, err := r.Submit(req.Context(), spec)
	if err != nil {
		var busy *BusyError
		var apiErr *serveclient.APIError
		switch {
		case errors.As(err, &busy):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", serve.RetryAfterSeconds(busy.RetryAfter)))
			writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		case errors.Is(err, ErrDraining), errors.Is(err, ErrNoReplicas):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		case errors.As(err, &apiErr):
			// Replica-side rejection that placement classified as permanent.
			writeJSON(w, apiErr.StatusCode, apiError{Error: apiErr.Message})
		default:
			writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, r.Status(j))
}

func (r *Router) jobOr404(w http.ResponseWriter, req *http.Request) (*Job, bool) {
	j, ok := r.Job(req.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return nil, false
	}
	return j, true
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	if j, ok := r.jobOr404(w, req); ok {
		writeJSON(w, http.StatusOK, r.Status(j))
	}
}

func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	j, ok := r.jobOr404(w, req)
	if !ok {
		return
	}
	st := r.Status(j)
	if !st.State.Terminal() {
		writeJSON(w, http.StatusConflict, apiError{Error: fmt.Sprintf("job %s is %s, not finished", j.ID, st.State)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	j, ok := r.jobOr404(w, req)
	if !ok {
		return
	}
	r.Cancel(j, "canceled by client")
	writeJSON(w, http.StatusAccepted, r.Status(j))
}

// FleetReplica is one row of GET /v1/fleet: a replica's membership state and
// its last health probe's load snapshot.
type FleetReplica struct {
	Name    string             `json:"name"`
	Healthy bool               `json:"healthy"`
	Stats   serve.ReplicaStats `json:"stats"`
}

// FleetStatus is the payload of GET /v1/fleet.
type FleetStatus struct {
	Replicas []FleetReplica `json:"replicas"`
	Draining bool           `json:"draining"`
}

func (r *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	members := r.memberList()
	st := FleetStatus{Draining: r.draining.Load()}
	for _, m := range members {
		stats, _ := m.Stats()
		st.Replicas = append(st.Replicas, FleetReplica{Name: m.name, Healthy: m.Healthy(), Stats: stats})
	}
	// Deterministic order for scripts and tests.
	sort.Slice(st.Replicas, func(i, k int) bool { return st.Replicas[i].Name < st.Replicas[k].Name })
	writeJSON(w, http.StatusOK, st)
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	healthy, total := r.healthyCount()
	g := fleetGauges{
		ReplicasHealthy: healthy,
		ReplicasTotal:   total,
		JobsInflight:    int(r.inflight.Load()),
		Draining:        r.draining.Load(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.metrics.write(w, g)
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if r.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if healthy, _ := r.healthyCount(); healthy == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no healthy replicas")
		return
	}
	fmt.Fprintln(w, "ok")
}
