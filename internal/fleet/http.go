package fleet

import (
	"net/http"
	"sort"

	"islands/internal/serve"
)

// Handler returns the router's HTTP API: the job routes a replica serves
// (serve.Front.Handler) — so serveclient, and therefore mpdata-load, points
// at a router or a replica interchangeably — plus
//
//	GET  /v1/fleet             membership + per-replica load -> 200 JSON
//	GET  /metrics              fleet text exposition
//
// and /healthz answers 503 while no replica is healthy. The router follows
// each replica's SSE stream (see Router.follow) and folds what it hears into
// the routed job, so a client polling GET /v1/jobs/{id} or following GET
// /v1/jobs/{id}/events here sees a step or a completion as soon as the
// replica reported it. Finished jobs stay answerable for the most recent
// serve.TerminalRetention of them; an older id is a 404.
func (r *Router) Handler() http.Handler {
	mux := r.front.Handler()
	mux.HandleFunc("GET /v1/fleet", r.handleFleet)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	return mux
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
	st := FleetStatus{Draining: r.front.Draining()}
	for _, m := range r.memberList() {
		st.Replicas = append(st.Replicas, FleetReplica{Name: m.name, Healthy: m.Healthy(), Stats: m.Stats()})
	}
	// Deterministic order for scripts and tests.
	sort.Slice(st.Replicas, func(i, k int) bool { return st.Replicas[i].Name < st.Replicas[k].Name })
	serve.WriteJSON(w, http.StatusOK, st)
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	healthy, total := r.healthyCount()
	g := fleetGauges{
		ReplicasHealthy: healthy,
		ReplicasTotal:   total,
		JobsInflight:    int(r.inflight.Load()),
		Draining:        r.front.Draining(),
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	r.metrics.write(w, g)
}
