package fleet

import (
	"io"
	"sync/atomic"

	"islands/internal/serve"
)

// Metrics is the router's instrumentation: fleet-level job counters plus the
// placement/failure-model counters the smoke tests gate on (zero lost jobs
// means fleet_jobs_submitted_total == succeeded + failed + canceled once the
// fleet is idle, with fleet_jobs_failed_total staying 0 under pure replica
// faults).
type Metrics struct {
	Submitted atomic.Uint64 // jobs accepted and placed by the router
	Rejected  atomic.Uint64 // aggregate 429s: every healthy replica was saturated
	Succeeded atomic.Uint64
	Failed    atomic.Uint64
	Canceled  atomic.Uint64

	Placements atomic.Uint64 // replica submissions that were accepted (first placements + reroutes)
	Steals     atomic.Uint64 // placements that landed off the key's home replica (cold key or saturated home)
	Rerouted   atomic.Uint64 // replica faults survived: the job was re-placed and re-run elsewhere

	CacheHits   atomic.Uint64 // job results that reused a warm compiled engine somewhere in the fleet
	CacheMisses atomic.Uint64
}

// fleetGauges are the live values injected at exposition time.
type fleetGauges struct {
	ReplicasHealthy int
	ReplicasTotal   int
	JobsInflight    int
	Draining        bool
}

// write renders the Prometheus text exposition format.
func (m *Metrics) write(w io.Writer, g fleetGauges) {
	serve.WriteCounter(w, "fleet_jobs_submitted_total", "Jobs accepted and placed by the router.", m.Submitted.Load())
	serve.WriteCounter(w, "fleet_jobs_rejected_total", "Jobs rejected because every healthy replica was saturated (aggregate 429).", m.Rejected.Load())
	serve.WriteCounter(w, "fleet_jobs_succeeded_total", "Jobs that completed successfully somewhere in the fleet.", m.Succeeded.Load())
	serve.WriteCounter(w, "fleet_jobs_failed_total", "Jobs that failed for job-side reasons (kernel failure, reroute budget exhausted).", m.Failed.Load())
	serve.WriteCounter(w, "fleet_jobs_canceled_total", "Jobs canceled by the client or their own deadline.", m.Canceled.Load())
	serve.WriteCounter(w, "fleet_placements_total", "Replica submissions that were accepted (first placements and reroutes).", m.Placements.Load())
	serve.WriteCounter(w, "fleet_steals_total", "Placements that landed off the key's home replica (work stealing).", m.Steals.Load())
	serve.WriteCounter(w, "fleet_reroutes_total", "Replica faults survived: jobs re-placed and re-run on another replica.", m.Rerouted.Load())
	serve.WriteCounter(w, "fleet_cache_hits_total", "Job results that reused a warm compiled engine somewhere in the fleet.", m.CacheHits.Load())
	serve.WriteCounter(w, "fleet_cache_misses_total", "Job results that compiled a fresh engine.", m.CacheMisses.Load())
	serve.WriteGauge(w, "fleet_replicas_healthy", "Replicas currently accepting placements.", int64(g.ReplicasHealthy))
	serve.WriteGauge(w, "fleet_replicas_total", "Configured replicas, healthy or not.", int64(g.ReplicasTotal))
	serve.WriteGauge(w, "fleet_jobs_inflight", "Jobs placed but not yet terminal.", int64(g.JobsInflight))
	serve.WriteBoolGauge(w, "fleet_draining", "1 while the router drains (no admissions).", g.Draining)
}
