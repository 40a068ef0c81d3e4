package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// perLayer declares every per-layer metric. Each traced run prints all of
// them; a metric of a layer the workload never enters reads 0 there, which
// is itself the statement that the layer did no work. README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ds []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			ds = append(ds, metricDef{name: n, unit: unit, better: better})
		}
	}
	perArm := func(prefix string) []string {
		var ns []string
		for _, a := range arms {
			ns = append(ns, prefix+"."+a)
		}
		return ns
	}
	// mpdata + stencil: row kernels and the fusion plan.
	add("worker-ms", "lower", perArm("kernel.compute_ms_per_step")...)
	add("count", "lower", "kernel.flops_per_cell_step")
	add("Gflop/s", "higher", "kernel.gflops.islands", "kernel.gflops.original")
	add("B-modeled", "lower", "kernel.modeled_bytes_per_cell_step.original", "kernel.modeled_bytes_per_cell_step.plus31d")
	add("GB/s", "higher", "host.triad_gbs")
	add("ratio", "higher", "kernel.bytes_share_of_triad.original")
	// sched: teams and barriers.
	add("ns", "lower", "sched.barrier_ns.n8", "sched.barrier_ns.n16")
	add("worker-ms", "lower", perArm("sched.spin_ms_per_step")...)
	add("worker-ms", "lower", perArm("sched.park_ms_per_step")...)
	add("%", "lower", perArm("sched.barrier_share_pct")...)
	add("count", "lower", perArm("sched.barrier_waits_per_step")...)
	// exec: schedule compile, step loop, halo publish, machine model.
	add("ms", "lower", perArm("exec.step_ms")...)
	add("%", "lower", perArm("exec.imbalance_pct")...)
	add("ms", "lower", perArm("exec.compile_ms")...)
	add("ms", "lower", "exec.compile_ms.small_p50")
	add("ms", "lower", perArm("exec.first_step_ms")...)
	add("count", "lower", perArm("exec.kernel_items_per_step")...)
	add("B", "lower", "exec.halo_bytes_per_step.islands")
	add("%", "lower", "exec.extra_cells_pct.islands")
	add("count", "lower", "exec.allocs_per_step")
	add("ratio", "lower", "exec.k4_over_k1.islands")
	add("s-modeled", "lower", perArm("exec.model_s")...)
	add("tau", "higher", "exec.model_rank_agreement")
	add("s", "lower", "islands.run50_s")
	// solver: the plain single-threaded baseline.
	add("Mcellstep/s", "higher", "solver.reference_mcell_steps_per_s")
	add("ratio", "higher", "exec.speedup_over_reference.islands")
	// serve: normalize, queue, lease, reset, encode, HTTP.
	for _, s := range []string{"mpdata", "heat", "lbm", "swe", "wave", "life", "gcr"} {
		add("ms", "lower", "serve.step_ms_avg."+s)
	}
	add("ms", "lower", "serve.queue_wait_ms_p50", "serve.queue_wait_ms_p95", "serve.run_ms_p50",
		"serve.overhead_ms_p50", "serve.overhead_ms_p95")
	add("ratio", "higher", "serve.pool_hit_rate")
	add("count", "lower", "serve.pool_evictions")
	add("ms", "lower", "serve.lease_miss_ms_p50", "serve.engine_reset_ms_p50", "serve.engine_checksum_ms_p50",
		"serve.http_submit_ms_p50")
	add("us", "lower", "serve.http_status_us_p50")
	add("B", "lower", "serve.result_bytes_p50")
	add("us", "lower", "serve.normalize_us", "serve.pool_hit_acquire_us")
	add("count", "lower", "serve.rejected_total")
	// fleet: hash placement, proxy hop, replica poll.
	add("ms", "lower", "fleet.hop_ms_p50", "fleet.hop_ms_p95", "fleet.http_submit_ms_p50")
	add("count", "lower", "fleet.replica_requests_per_job")
	add("ratio", "higher", "fleet.cache_hit_rate")
	add("ratio", "lower", "fleet.placement_skew")
	add("count", "lower", "fleet.steals_total", "fleet.reroutes_total")
	// stream + grid + tune: tile pipeline, plane store, residency pick.
	add("ratio", "lower", "stream.overhead_x")
	add("ms", "lower", "stream.load_stall_ms_per_job", "stream.write_stall_ms_per_job")
	add("ratio", "higher", "stream.overlap_efficiency")
	add("count", "lower", "stream.tiles_per_job")
	add("B", "lower", "stream.bytes_read_per_job", "stream.bytes_written_per_job")
	add("count", "higher", "stream.residency_k_mode")
	add("MB/s", "higher", "stream.disk_bw_mbs", "grid.planefile_write_mbs", "grid.planefile_read_mbs")
	add("GB/s", "higher", "grid.copyregion_gbs")
	add("ms", "lower", "tune.pick_residency_ms")
	// The instrument itself, and each span's share of the jobs' time.
	add("1/s", "higher", "client.jobs_per_s")
	add("count", "lower", "client.polls_per_job")
	add("%", "lower", "trace.overhead_pct")
	for _, n := range spanNames {
		add("%", "lower", "trace.self_pct."+n)
	}
	return ds
}

// spanNames are the spans a traced run records, outermost first.
var spanNames = []string{
	"job", "client.submit", "client.wait", "router.submit", "router.status",
	"replica.submit", "replica.status",
	"engine.compile", "engine.reset", "engine.step", "engine.checksums",
}

// Shares of a traced run's --seconds: an untraced stretch to price the
// tracing against, the traced stretch, and the rest for set-up and probes.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
)

func rate(outs []outcome, wall time.Duration) (mcellPerS float64) {
	for _, o := range outs {
		if o.ok {
			mcellPerS += o.cellSteps
		}
	}
	return mcellPerS / 1e6 / wall.Seconds()
}

// tracedRun measures the per-layer metrics of one workload: an untraced
// stretch, then the same job list again with spans, profiling and counters
// on, then the probes of the layers this workload stresses. traceOut, when
// set, receives the spans as Chrome trace-event JSON.
func tracedRun(w *workload, seed int64, seconds float64, traceOut string, probes bool) (*result, error) {
	m := map[string]float64{}
	jobs := w.jobList(seed)
	stretch := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }

	e, err := setUp(w, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t0 := time.Now()
	plain := runLoop(e, jobs, w.clients, stretch(untracedShare), 0, nil)
	plainRate := rate(plain, time.Since(t0))
	e.close()

	rec := newRecorder()
	if e, err = setUp(w, rec); err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer e.close()
	if et, ok := e.target.(*engineTarget); ok {
		for _, eng := range et.engines {
			eng.SetProfiling(true)
		}
	}
	before := e.counters()
	t0 = time.Now()
	outs := runLoop(e, jobs, w.clients, stretch(tracedShare), 0, rec)
	wall := time.Since(t0)
	after := e.counters()

	tl := tally(w, append(plain, outs...))
	res := &tl
	res.Correct = res.Correct && len(plain) > 0 && len(outs) > 0

	spans := rec.spans
	resolveJobs(spans, outs, jobs, w.classes, w.front)
	linkSpans(spans)
	if traceOut != "" {
		if err := writeTraceFile(traceOut, spans); err != nil {
			return nil, err
		}
	}

	polls := 0
	for _, o := range outs {
		polls += o.polls
	}
	m["client.jobs_per_s"] = float64(len(outs)) / wall.Seconds()
	m["client.polls_per_job"] = float64(polls) / float64(max(1, len(outs)))
	m["trace.overhead_pct"] = 100 * (1 - rate(outs, wall)/plainRate)
	spanMetrics(m, spans, w)
	servedMetrics(m, outs, w, before, after)
	m["solver.reference_mcell_steps_per_s"] = e.refs.cellSteps / 1e6 / e.refs.seconds

	switch w.name {
	case "resident-sweep":
		err = sweepLayers(m, e, probes)
	case "serve-mix":
		if probes {
			c := w.classes[0]
			m["serve.normalize_us"] = normalizeUs(c.spec)
			m["serve.pool_hit_acquire_us"], err = poolHitAcquireUs(c.ns)
		}
	case "streamed":
		err = streamLayers(m, e, outs, probes)
	}
	if err != nil {
		return nil, fmt.Errorf("%s layers: %w", w.name, err)
	}
	for _, d := range perLayer {
		res.Metrics[d.name] = value{m[d.name], d.unit}
	}
	for name := range m {
		if _, declared := res.Metrics[name]; !declared {
			return nil, fmt.Errorf("metric %s is measured but not declared in perLayer", name)
		}
	}
	return res, nil
}

func writeTraceFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMetrics derives the metrics that come from span durations alone.
func spanMetrics(m map[string]float64, spans []span, w *workload) {
	self := selfTimes(spans)
	var jobTotal time.Duration
	selfBy := map[string]time.Duration{}
	durs := map[string][]float64{}      // by span name, spans inside a job
	byKey := map[string][]float64{}     // engine.step by class key, not first
	firstBy := map[string][]float64{}   // first engine.step by class key
	compileBy := map[string][]float64{} // engine.compile by class key
	maxBytes := map[int]float64{}
	replicaReqs := 0
	for i, s := range spans {
		switch {
		case s.Name == "engine.compile":
			compileBy[s.Key] = append(compileBy[s.Key], ms(s.dur()))
		case s.Name == "engine.step" && s.First:
			firstBy[s.Key] = append(firstBy[s.Key], ms(s.dur()))
		}
		if s.Job < 0 {
			continue
		}
		if s.Name == "job" {
			jobTotal += s.dur()
		}
		selfBy[s.Name] += self[i]
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		if s.Name == "engine.step" && !s.First {
			byKey[s.Key] = append(byKey[s.Key], ms(s.dur()))
		}
		if strings.HasPrefix(s.Name, "replica.") {
			replicaReqs++
			if s.Name == "replica.status" {
				maxBytes[s.Job] = max(maxBytes[s.Job], float64(s.Bytes))
			}
		}
	}
	for _, n := range spanNames {
		if jobTotal > 0 {
			m["trace.self_pct."+n] = 100 * float64(selfBy[n]) / float64(jobTotal)
		}
	}
	if w.front == "" {
		for _, c := range w.classes {
			k := classKey(c.ns)
			m["exec.step_ms."+c.arm] = median(byKey[k])
			m["exec.compile_ms."+c.arm] = median(compileBy[k])
			m["exec.first_step_ms."+c.arm] = median(firstBy[k])
		}
		return
	}
	var compiles []float64 // set-up and warm-up included
	for _, vs := range compileBy {
		compiles = append(compiles, vs...)
	}
	m["exec.compile_ms.small_p50"] = median(compiles)
	m["serve.lease_miss_ms_p50"] = median(durs["engine.compile"])
	m["serve.engine_reset_ms_p50"] = median(durs["engine.reset"])
	m["serve.engine_checksum_ms_p50"] = median(durs["engine.checksums"])
	m["serve.http_submit_ms_p50"] = median(durs["replica.submit"])
	m["serve.http_status_us_p50"] = 1e3 * median(durs["replica.status"])
	var sizes []float64
	for _, b := range maxBytes {
		sizes = append(sizes, b)
	}
	m["serve.result_bytes_p50"] = median(sizes)
	if w.front == "fleet" {
		m["fleet.http_submit_ms_p50"] = median(durs["router.submit"])
		m["fleet.replica_requests_per_job"] = float64(replicaReqs) / float64(max(1, len(durs["job"])))
	}
}

// counters is a snapshot of the servers' and the router's own counts.
type counters struct {
	hits, misses, evictions, rejected uint64
	perReplica                        []uint64 // jobs succeeded
	fleetHits, fleetMisses            uint64
	steals, reroutes                  uint64
}

func (e *env) counters() counters {
	var c counters
	for _, s := range e.servers {
		ps := s.PoolStats()
		c.hits += ps.Hits
		c.misses += ps.Misses
		c.evictions += ps.Evictions
		c.rejected += s.Metrics().Rejected.Load()
		c.perReplica = append(c.perReplica, s.Metrics().Succeeded.Load())
	}
	if e.router != nil {
		rm := e.router.Metrics()
		c.fleetHits, c.fleetMisses = rm.CacheHits.Load(), rm.CacheMisses.Load()
		c.steals, c.reroutes = rm.Steals.Load(), rm.Rerouted.Load()
		c.rejected += rm.Rejected.Load()
	}
	return c
}

func share(part, rest uint64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

// servedMetrics derives the metrics that come from the results the servers
// returned and from their counters' change over the traced stretch.
func servedMetrics(m map[string]float64, outs []outcome, w *workload, before, after counters) {
	if w.front == "" {
		return
	}
	var queue, run, over []float64
	stepBy := map[string][]float64{}
	for _, o := range outs {
		if o.result == nil {
			continue
		}
		r := o.result
		queue = append(queue, r.QueueMs)
		run = append(run, r.WallMs)
		over = append(over, o.latencyMs()-r.QueueMs-r.WallMs)
		sv := w.classes[o.class].ns.Solver
		stepBy[sv] = append(stepBy[sv], r.StepMsAvg)
	}
	for sv, vs := range stepBy {
		m["serve.step_ms_avg."+sv] = median(vs)
	}
	m["serve.queue_wait_ms_p50"], _ = percentile(queue, 0.50)
	m["serve.queue_wait_ms_p95"], _ = percentile(queue, 0.95)
	m["serve.run_ms_p50"] = median(run)
	// What the client waited beyond the replica's own queue + run: on one
	// server that is serve's fixed cost per job, behind the router it is
	// the fleet hop.
	p50, _ := percentile(over, 0.50)
	p95, _ := percentile(over, 0.95)
	if w.front == "fleet" {
		m["fleet.hop_ms_p50"], m["fleet.hop_ms_p95"] = p50, p95
	} else {
		m["serve.overhead_ms_p50"], m["serve.overhead_ms_p95"] = p50, p95
	}
	m["serve.pool_hit_rate"] = share(after.hits-before.hits, after.misses-before.misses)
	m["serve.pool_evictions"] = float64(after.evictions - before.evictions)
	m["serve.rejected_total"] = float64(after.rejected - before.rejected)
	if w.front == "fleet" {
		m["fleet.cache_hit_rate"] = share(after.fleetHits-before.fleetHits, after.fleetMisses-before.fleetMisses)
		m["fleet.steals_total"] = float64(after.steals - before.steals)
		m["fleet.reroutes_total"] = float64(after.reroutes - before.reroutes)
		var most, total float64
		for i := range after.perReplica {
			n := float64(after.perReplica[i] - before.perReplica[i])
			most, total = max(most, n), total+n
		}
		if total > 0 {
			m["fleet.placement_skew"] = most / (total / float64(len(after.perReplica)))
		}
	}
}

// sweepLayers fills the kernel, sched and exec metrics of resident-sweep:
// the engines' own profiles, the schedules' exact counts and the machine
// model; with probes, also the direct probes of those layers.
func sweepLayers(m map[string]float64, e *env, probes bool) error {
	et := e.target.(*engineTarget)
	w := e.w
	cells := float64(w.classes[0].ns.Domain.Cells())
	if probes {
		m["host.triad_gbs"] = triadGBs()
		m["sched.barrier_ns.n8"] = barrierNs(8)
		m["sched.barrier_ns.n16"] = barrierNs(16)
	}
	var modeled, measured []float64
	for i, c := range w.classes {
		sum := et.engines[i].Profile().Summary()
		et.engines[i].SetProfiling(false)
		m["kernel.compute_ms_per_step."+c.arm] = 1e3 * sum.ComputeSeconds
		m["sched.spin_ms_per_step."+c.arm] = 1e3 * sum.SpinSeconds
		m["sched.park_ms_per_step."+c.arm] = 1e3 * sum.ParkSeconds
		m["sched.barrier_share_pct."+c.arm] = sum.BarrierSharePct
		m["exec.imbalance_pct."+c.arm] = sum.MaxImbalancePct

		f, err := factsOf(c.ns)
		if err != nil {
			return err
		}
		m["sched.barrier_waits_per_step."+c.arm] = float64(f.stats.BarrierWaits)
		m["exec.kernel_items_per_step."+c.arm] = float64(f.stats.KernelItems)
		m["exec.model_s."+c.arm] = f.modelSec
		modeled = append(modeled, f.modelSec)
		measured = append(measured, m["exec.step_ms."+c.arm])
		stepSec := m["exec.step_ms."+c.arm] / 1e3
		switch c.arm {
		case "original":
			m["kernel.flops_per_cell_step"] = f.flopsStep / cells
			m["kernel.gflops.original"] = f.flopsStep / stepSec / 1e9
			m["kernel.modeled_bytes_per_cell_step.original"] = f.modelBytes / cells
			if triad := m["host.triad_gbs"]; triad > 0 {
				m["kernel.bytes_share_of_triad.original"] = f.modelBytes / stepSec / 1e9 / triad
			}
		case "plus31d":
			m["kernel.modeled_bytes_per_cell_step.plus31d"] = f.modelBytes / cells
		case "islands":
			m["kernel.gflops.islands"] = f.flopsStep / stepSec / 1e9
			m["exec.halo_bytes_per_step.islands"] = float64(f.stats.HaloBytes)
			m["exec.extra_cells_pct.islands"] = f.extraPct
			m["exec.speedup_over_reference.islands"] = cells / stepSec / 1e6 / m["solver.reference_mcell_steps_per_s"]
			if !probes {
				continue
			}
			if m["exec.allocs_per_step"], err = allocsPerStep(et.engines[i]); err != nil {
				return err
			}
			k1, err := stepSeconds(c.spec, 10)
			if err != nil {
				return err
			}
			k4spec := c.spec
			k4spec.KSteps, k4spec.Steps = 4, 4
			if k4, err := stepSeconds(k4spec, 10); err != nil {
				// A refused spec is a fact about the program, not a failed job.
				fmt.Fprintf(os.Stderr, "bench: exec.k4_over_k1.islands reads 0: ksteps 4 refused: %v\n", err)
			} else {
				m["exec.k4_over_k1.islands"] = k4 / k1
			}
		}
	}
	m["exec.model_rank_agreement"] = kendallTau(modeled, measured)
	if !probes {
		return nil
	}
	var err error
	m["islands.run50_s"], err = libraryRun50()
	return err
}

// streamLayers fills the stream, grid and tune metrics of streamed: what
// the jobs' own stream summaries say and, with probes, the direct probes.
func streamLayers(m map[string]float64, e *env, outs []outcome, probes bool) error {
	c := e.w.classes[0]
	var runMs, overlap, tiles, rd, wr, bw []float64
	var ks []int
	var tilePlanes int
	for _, o := range outs {
		if o.result == nil || o.result.Stream == nil {
			continue
		}
		s := o.result.Stream
		runMs = append(runMs, o.result.WallMs)
		overlap = append(overlap, s.OverlapEfficiency)
		tiles = append(tiles, float64(s.TilesDone))
		rd = append(rd, float64(s.BytesRead))
		wr = append(wr, float64(s.BytesWritten))
		bw = append(bw, s.DiskBWBytes/1e6)
		ks = append(ks, s.K)
		tilePlanes = s.TilePlanes
	}
	if len(ks) == 0 {
		return fmt.Errorf("no streamed job reported a stream summary")
	}
	m["stream.overlap_efficiency"] = median(overlap)
	m["stream.tiles_per_job"] = median(tiles)
	m["stream.bytes_read_per_job"] = median(rd)
	m["stream.bytes_written_per_job"] = median(wr)
	m["stream.disk_bw_mbs"] = median(bw)
	m["stream.residency_k_mode"] = float64(mode(ks))
	if !probes {
		return nil
	}

	// The same cells and steps on one whole-domain engine, no tiles.
	direct := c.spec
	direct.Streamed, direct.MemoryBudgetMB = false, 0
	stepSec, err := stepSeconds(direct, 6)
	if err != nil {
		return err
	}
	m["stream.overhead_x"] = median(runMs) / 1e3 / (stepSec * float64(c.ns.Steps))
	if m["stream.load_stall_ms_per_job"], m["stream.write_stall_ms_per_job"], err = streamProbe(e.spillDir, c.ns, tilePlanes, mode(ks)); err != nil {
		return err
	}
	if m["grid.planefile_write_mbs"], m["grid.planefile_read_mbs"], err = planeFileMBs(e.spillDir, c.ns.Domain); err != nil {
		return err
	}
	m["grid.copyregion_gbs"] = copyRegionGBs()
	m["tune.pick_residency_ms"], err = pickResidencyMs(c.ns)
	return err
}
