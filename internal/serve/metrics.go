package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/exec"
	"islands/internal/solver"
)

// stepBuckets are the per-step latency histogram bounds in seconds.
var stepBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// histogram is a fixed-bucket latency histogram (atomic, lock-free record).
type histogram struct {
	counts []atomic.Uint64 // one per bucket + overflow
	sum    atomic.Uint64   // total in nanoseconds
	n      atomic.Uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Uint64, len(stepBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(stepBuckets, s)
	h.counts[i].Add(1)
	h.sum.Add(uint64(d.Nanoseconds()))
	h.n.Add(1)
}

// Metrics is the server's instrumentation: monotonically increasing counters
// plus per-strategy step-latency histograms. Gauges (queue depth, slot
// occupancy, cache size) are read live from their owners at exposition time.
type Metrics struct {
	Submitted atomic.Uint64 // jobs accepted into the queue
	Rejected  atomic.Uint64 // jobs refused by admission control (429)
	Succeeded atomic.Uint64
	Failed    atomic.Uint64
	Canceled  atomic.Uint64
	StepsRun  atomic.Uint64 // completed time steps across all jobs

	// TunerPinned counts jobs that opted out of autotuning (spec pin);
	// the remaining tuner counters live in the tuner itself and are read
	// at exposition time.
	TunerPinned atomic.Uint64

	// Stream counters cover out-of-core jobs (docs/STREAMING.md):
	// completed streamed jobs, tile residencies, spill-store traffic, and
	// jobs that resumed a named store's checkpoint.
	StreamJobs         atomic.Uint64
	StreamTiles        atomic.Uint64
	StreamBytesRead    atomic.Uint64
	StreamBytesWritten atomic.Uint64
	StreamResumed      atomic.Uint64

	mu    sync.Mutex
	steps map[string]*histogram         // per-strategy step latency
	jobs  map[string]*solverJobCounters // per-solver job outcomes
}

func newMetrics() *Metrics {
	return &Metrics{
		steps: make(map[string]*histogram),
		jobs:  make(map[string]*solverJobCounters),
	}
}

// solverJobCounters is one solver label's job-outcome counters — the labeled
// companions of the unlabeled serve_jobs_* totals (which stay untouched so
// existing scrapers keep parsing them).
type solverJobCounters struct {
	Submitted atomic.Uint64
	Rejected  atomic.Uint64
	Succeeded atomic.Uint64
	Failed    atomic.Uint64
	Canceled  atomic.Uint64
}

// validSolverLabels is the closed set of per-solver label values: the solver
// catalog's entry names. Anything else folds into "other", bounding the
// labeled series' cardinality exactly like the step histogram's strategy
// labels.
var validSolverLabels = func() map[string]struct{} {
	v := make(map[string]struct{})
	for _, n := range solver.Names() {
		v[n] = struct{}{}
	}
	return v
}()

// jobCounters returns the counter block for a solver label, folding unknown
// names into "other".
func (m *Metrics) jobCounters(label string) *solverJobCounters {
	if _, ok := validSolverLabels[label]; !ok {
		label = stepLabelOther
	}
	m.mu.Lock()
	c := m.jobs[label]
	if c == nil {
		c = &solverJobCounters{}
		m.jobs[label] = c
	}
	m.mu.Unlock()
	return c
}

// JobSubmitted counts one accepted job, in total and under its solver label.
func (m *Metrics) JobSubmitted(solver string) {
	m.Submitted.Add(1)
	m.jobCounters(solver).Submitted.Add(1)
}

// JobRejected counts one admission-control rejection.
func (m *Metrics) JobRejected(solver string) {
	m.Rejected.Add(1)
	m.jobCounters(solver).Rejected.Add(1)
}

// JobSucceeded counts one successful completion.
func (m *Metrics) JobSucceeded(solver string) {
	m.Succeeded.Add(1)
	m.jobCounters(solver).Succeeded.Add(1)
}

// JobFailed counts one failed job.
func (m *Metrics) JobFailed(solver string) {
	m.Failed.Add(1)
	m.jobCounters(solver).Failed.Add(1)
}

// JobCanceled counts one canceled or expired job.
func (m *Metrics) JobCanceled(solver string) {
	m.Canceled.Add(1)
	m.jobCounters(solver).Canceled.Add(1)
}

// stepLabelOther buckets step observations whose strategy label is not one
// of the known strategies — the histogram label set stays bounded no matter
// what strings reach ObserveStep.
const stepLabelOther = "other"

// validStepLabels is the closed set of per-strategy histogram labels: the
// executor's strategy names plus the core-islands variant. ObserveStep
// validates against it so a hostile or buggy caller cannot mint one time
// series per request string and explode the exposition's cardinality.
// streamStepLabel is the step-histogram label of streamed jobs, whose
// dispatch unit (one whole tile sweep) is not comparable to a resident step.
const streamStepLabel = "streamed"

var validStepLabels = func() map[string]struct{} {
	v := make(map[string]struct{})
	for _, s := range []exec.Strategy{exec.Original, exec.Plus31D, exec.IslandsOfCores} {
		v[s.String()] = struct{}{}
	}
	v[exec.IslandsOfCores.String()+"+core-islands"] = struct{}{}
	v[streamStepLabel] = struct{}{}
	return v
}()

// ObserveStep records one completed step's latency for a strategy label.
// Labels outside the known strategy set are folded into "other".
func (m *Metrics) ObserveStep(strategy string, d time.Duration) {
	if _, ok := validStepLabels[strategy]; !ok {
		strategy = stepLabelOther
	}
	m.StepsRun.Add(1)
	m.mu.Lock()
	h := m.steps[strategy]
	if h == nil {
		h = newHistogram()
		m.steps[strategy] = h
	}
	m.mu.Unlock()
	h.observe(d)
}

// gauges are the live values the server injects at exposition time.
type gauges struct {
	QueueDepth    int
	QueueCapacity int
	SlotsBusy     int
	SlotsTotal    int
	CacheHits     uint64
	CacheMisses   uint64
	CacheSize     int
	CacheEvicted  uint64
	Running       int
	Draining      bool

	// Tuner counters, snapshotted from tune.Tuner.Counters() (all zero
	// when no tuner is configured).
	TunerEnabled    bool
	TunerDecisions  uint64
	TunerTuned      uint64
	TunerExplored   uint64
	TunerSeedErrors uint64
	TunerClasses    int

	// StreamDiskBW is the live disk-bandwidth EWMA in bytes/s that prices
	// streamed residencies (0 until a streamed job completes).
	StreamDiskBW float64
}

// WriteCounter renders one unlabeled counter family — HELP, TYPE and value
// lines — in the Prometheus text exposition format. The fleet router's
// exposition is written with the same three helpers.
func WriteCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// WriteGauge renders one unlabeled integer gauge family.
func WriteGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// WriteBoolGauge renders a condition as a 0/1 gauge family.
func WriteBoolGauge(w io.Writer, name, help string, on bool) {
	v := int64(0)
	if on {
		v = 1
	}
	WriteGauge(w, name, help, v)
}

// write renders the Prometheus text exposition format.
func (m *Metrics) write(w io.Writer, g gauges) {
	// Snapshot the per-solver counters once; each serve_jobs_* family below
	// emits its unlabeled total (stable for existing scrapers) followed by
	// one {solver=...} series per label seen.
	m.mu.Lock()
	solverLabels := make([]string, 0, len(m.jobs))
	for k := range m.jobs {
		solverLabels = append(solverLabels, k)
	}
	sort.Strings(solverLabels)
	solverCounts := make([]*solverJobCounters, len(solverLabels))
	for i, k := range solverLabels {
		solverCounts[i] = m.jobs[k]
	}
	m.mu.Unlock()
	jc := func(name, help string, total uint64, per func(*solverJobCounters) uint64) {
		WriteCounter(w, name, help, total)
		for i, label := range solverLabels {
			fmt.Fprintf(w, "%s{solver=%q} %d\n", name, label, per(solverCounts[i]))
		}
	}
	jc("serve_jobs_submitted_total", "Jobs accepted into the queue.", m.Submitted.Load(),
		func(c *solverJobCounters) uint64 { return c.Submitted.Load() })
	jc("serve_jobs_rejected_total", "Jobs refused by admission control.", m.Rejected.Load(),
		func(c *solverJobCounters) uint64 { return c.Rejected.Load() })
	jc("serve_jobs_succeeded_total", "Jobs that completed successfully.", m.Succeeded.Load(),
		func(c *solverJobCounters) uint64 { return c.Succeeded.Load() })
	jc("serve_jobs_failed_total", "Jobs that failed (worker failure or internal error).", m.Failed.Load(),
		func(c *solverJobCounters) uint64 { return c.Failed.Load() })
	jc("serve_jobs_canceled_total", "Jobs canceled or expired (deadline, drain).", m.Canceled.Load(),
		func(c *solverJobCounters) uint64 { return c.Canceled.Load() })
	WriteCounter(w, "serve_steps_total", "Completed simulation time steps across all jobs.", m.StepsRun.Load())
	WriteGauge(w, "serve_jobs_running", "Jobs currently executing on a runner slot.", int64(g.Running))
	WriteGauge(w, "serve_queue_depth", "Jobs waiting for admission.", int64(g.QueueDepth))
	WriteGauge(w, "serve_queue_capacity", "Maximum queue depth before rejection.", int64(g.QueueCapacity))
	WriteGauge(w, "serve_slots_busy", "Runner slots currently leased.", int64(g.SlotsBusy))
	WriteGauge(w, "serve_slots_total", "Runner slot capacity.", int64(g.SlotsTotal))
	WriteCounter(w, "serve_schedule_cache_hits_total", "Jobs that reused a cached compiled runner.", g.CacheHits)
	WriteCounter(w, "serve_schedule_cache_misses_total", "Jobs that compiled a fresh runner.", g.CacheMisses)
	WriteCounter(w, "serve_schedule_cache_evictions_total", "Cached runners discarded by the LRU bound.", g.CacheEvicted)
	WriteGauge(w, "serve_schedule_cache_size", "Idle compiled runners currently cached.", int64(g.CacheSize))
	WriteBoolGauge(w, "serve_draining", "1 while the server drains (no admissions).", g.Draining)
	WriteBoolGauge(w, "serve_tuner_enabled", "1 when the autotuner maps job specs to tuned configs.", g.TunerEnabled)
	WriteCounter(w, "serve_tuner_decisions_total", "Tuning decisions taken for served jobs.", g.TunerDecisions)
	WriteCounter(w, "serve_tuner_tuned_total", "Decisions that substituted a different config than requested.", g.TunerTuned)
	WriteCounter(w, "serve_tuner_explored_total", "Decisions that ran an exploration probe.", g.TunerExplored)
	WriteCounter(w, "serve_tuner_pinned_total", "Jobs that opted out of tuning via spec pin.", m.TunerPinned.Load())
	WriteCounter(w, "serve_tuner_seed_errors_total", "Problem classes whose candidate seeding failed (passthrough).", g.TunerSeedErrors)
	WriteGauge(w, "serve_tuner_classes", "Distinct problem classes the tuner has seen.", int64(g.TunerClasses))
	WriteCounter(w, "serve_stream_jobs_total", "Streamed (out-of-core) jobs that completed successfully.", m.StreamJobs.Load())
	WriteCounter(w, "serve_stream_tiles_total", "Tile residencies completed by streamed jobs.", m.StreamTiles.Load())
	WriteCounter(w, "serve_stream_bytes_read_total", "Bytes read from spill stores by streamed jobs.", m.StreamBytesRead.Load())
	WriteCounter(w, "serve_stream_bytes_written_total", "Bytes written to spill stores by streamed jobs.", m.StreamBytesWritten.Load())
	WriteCounter(w, "serve_stream_resumed_total", "Streamed jobs that resumed a named store's checkpoint.", m.StreamResumed.Load())
	fmt.Fprintf(w, "# HELP serve_stream_disk_bw_bytes Live disk-bandwidth EWMA pricing streamed residencies (bytes/s).\n# TYPE serve_stream_disk_bw_bytes gauge\nserve_stream_disk_bw_bytes %g\n", g.StreamDiskBW)

	fmt.Fprintf(w, "# HELP serve_step_seconds Per-step wall latency by strategy.\n# TYPE serve_step_seconds histogram\n")
	m.mu.Lock()
	labels := make([]string, 0, len(m.steps))
	for k := range m.steps {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	hists := make([]*histogram, len(labels))
	for i, k := range labels {
		hists[i] = m.steps[k]
	}
	m.mu.Unlock()
	for i, label := range labels {
		h := hists[i]
		var cum uint64
		for b, bound := range stepBuckets {
			cum += h.counts[b].Load()
			fmt.Fprintf(w, "serve_step_seconds_bucket{strategy=%q,le=%q} %d\n", label, trimFloat(bound), cum)
		}
		cum += h.counts[len(stepBuckets)].Load()
		fmt.Fprintf(w, "serve_step_seconds_bucket{strategy=%q,le=\"+Inf\"} %d\n", label, cum)
		fmt.Fprintf(w, "serve_step_seconds_sum{strategy=%q} %g\n", label, float64(h.sum.Load())/1e9)
		fmt.Fprintf(w, "serve_step_seconds_count{strategy=%q} %d\n", label, h.n.Load())
	}
}

// trimFloat renders a bucket bound without trailing zeros.
func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }
