package main

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables; bench_test.go checks the two agree.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse (0 for per-layer metrics, which have none).
	bound float64
}

// endToEnd are the metrics a caller of the simulation service sees. Three
// depart from the issue's six, each forced by the benchmark contract:
//
//   - failed_share is gone, because a metric here must never read 0.
//     Failures are the "failed"/"attempted" keys of every result, and any
//     failed job makes the run incorrect. cpu_ms_per_job takes its place:
//     with 16 workers spinning at barriers on 2 cores, CPU is a cost a change
//     can move without moving latency.
//   - job_ms_p90 replaces job_ms_p95: a run is 20 s, not a fixed 200 jobs,
//     and at 130-170 jobs only the 90th percentile has ten samples beyond it.
//   - rss_mb, the mean of VmRSS sampled through the timed run, replaces
//     peak_rss_mb: VmHWM of this garbage-collected process moved by a quarter
//     between identical runs. It is still printed beside rss_mb, unbounded.
//
// Every bound is the contract's cap: identical runs minutes apart differ by
// 5-15 % on the recording host (README.md, "Spread"), and a bound must stay
// three times clear of that.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"mcell_steps_per_s", "Mcellstep/s", "higher", 0.25},
	{"job_ms_p50", "ms", "lower", 0.25},
	{"job_ms_p90", "ms", "lower", 0.25},
	{"cpu_ms_per_job", "ms", "lower", 0.25},
	{"rss_mb", "MiB", "lower", 0.25},
}

// value is one measured metric in the result line's form.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

const (
	// setupReps is how many times a timed run sets the workload up; the
	// median is reported, so one slow start does not read as a regression.
	setupReps = 3
	// windows is how many runs of consecutive jobs, equal in count, the
	// timed run is cut into. Throughput and median latency are computed per
	// window and the median window is reported, so a burst of host noise
	// moves one window, not the number. The 90th percentile is taken over
	// all jobs of the run instead: a window holds too few jobs beyond it.
	windows = 5
)

// windowStats are the numbers of one window of the timed run.
type windowStats struct {
	jobs      int
	mcellPerS float64
	p50       float64
}

// sliceStats sorts the succeeded jobs by completion, cuts them into n
// windows of equal count, and computes each window's throughput — its work
// over the time from the previous window's last completion to its own — and
// median latency.
func sliceStats(outs []outcome, n int) []windowStats {
	var done []outcome
	for _, o := range outs {
		if o.ok {
			done = append(done, o)
		}
	}
	sort.Slice(done, func(a, b int) bool { return done[a].end < done[b].end })
	n = max(1, min(n, len(done)))
	ws := make([]windowStats, n)
	var from time.Duration
	for i := range ws {
		part := done[i*len(done)/n : (i+1)*len(done)/n]
		if len(part) == 0 {
			continue
		}
		var work float64
		lat := make([]float64, len(part))
		for k, o := range part {
			work += o.cellSteps
			lat[k] = o.latencyMs()
		}
		upTo := part[len(part)-1].end
		ws[i] = windowStats{jobs: len(part), mcellPerS: work / 1e6 / (upTo - from).Seconds(), p50: median(lat)}
		from = upTo
	}
	return ws
}

func medianOf(ws []windowStats, f func(windowStats) float64) float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = f(w)
	}
	return median(vs)
}

// timed is what one untraced run measured.
type timed struct {
	res       result
	outs      []outcome
	wall      time.Duration
	windows   []windowStats
	p90Beyond int
	setups    []float64
	peakRSS   float64 // VmHWM at the end of the timed run, MiB
}

// timedRun sets the workload up, runs the closed loop on it for the given
// time with no tracing of any kind, then sets it up reps-1 more times so the
// set-up time it reports is a median.
func timedRun(w *workload, seed int64, seconds float64, reps, nWindows int) (*timed, error) {
	t := &timed{}
	timedSetUp := func() (*env, error) {
		// Every set-up starts from a collected heap, as a fresh process
		// would; the garbage of the run before is not its cost.
		debug.FreeOSMemory()
		t0 := time.Now()
		e, err := setUp(w, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		t.setups = append(t.setups, time.Since(t0).Seconds())
		return e, nil
	}
	e, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	jobs := w.jobList(seed)
	stopRSS := sampleRSS(100 * time.Millisecond)
	cpu0, t0 := cpuSeconds(), time.Now()
	t.outs = runLoop(e, jobs, w.clients, time.Duration(seconds*float64(time.Second)), 0, nil)
	t.wall = time.Since(t0)
	cpu := cpuSeconds() - cpu0
	rss := stopRSS()
	t.peakRSS = procStatusMiB("VmHWM")
	e.close()
	for i := 1; i < reps; i++ {
		if e, err = timedSetUp(); err != nil {
			return nil, err
		}
		e.close()
	}

	t.res = tally(w, t.outs)
	t.windows = sliceStats(t.outs, nWindows)
	var lat []float64
	for _, o := range t.outs {
		if o.ok {
			lat = append(lat, o.latencyMs())
		}
	}
	p90, beyond := percentile(lat, 0.90)
	t.p90Beyond = beyond
	for name, v := range map[string]float64{
		"setup_s":           median(t.setups),
		"mcell_steps_per_s": medianOf(t.windows, func(w windowStats) float64 { return w.mcellPerS }),
		"job_ms_p50":        medianOf(t.windows, func(w windowStats) float64 { return w.p50 }),
		"job_ms_p90":        p90,
		"cpu_ms_per_job":    1e3 * cpu / float64(max(1, t.res.Attempted)),
		"rss_mb":            rss,
	} {
		t.res.Metrics[name] = value{v, unitOf(endToEnd, name)}
	}
	return t, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: undeclared metric " + name)
}

// describe prints each end-to-end metric with the sample counts behind it.
func (t *timed) describe(out io.Writer, w *workload) {
	mid := t.windows[len(t.windows)/2]
	fmt.Fprintf(out, "%s: %d jobs by %d clients in %.2f s, cut into %d windows of ~%d jobs; %d set-ups\n",
		w.name, len(t.outs), w.clients, t.wall.Seconds(), len(t.windows), mid.jobs, len(t.setups))
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups: %.3f", len(t.setups), t.setups)
		case "mcell_steps_per_s":
			note = "median window"
		case "job_ms_p50":
			note = fmt.Sprintf("median window; ~%d samples per window", mid.jobs)
		case "job_ms_p90":
			note = fmt.Sprintf("all %d jobs, %d beyond it", t.res.Attempted-t.res.Failed, t.p90Beyond)
		case "cpu_ms_per_job":
			note = fmt.Sprintf("process CPU time over %d jobs", len(t.outs))
		case "rss_mb":
			note = fmt.Sprintf("mean of VmRSS every 100 ms of the timed run; VmHWM %.1f MiB", t.peakRSS)
		}
		fmt.Fprintf(out, "%-20s %14.4f %-12s (%s)\n", d.name, t.res.Metrics[d.name].Value, d.unit, note)
	}
	fmt.Fprintf(out, "%-20s %14d %-12s (of %d attempted)\n", "failed", t.res.Failed, "jobs", t.res.Attempted)
}

// tally counts the jobs of a run: any job without a verified result makes
// the run incorrect.
func tally(w *workload, outs []outcome) result {
	res := result{Attempted: len(outs), Metrics: map[string]value{}}
	for _, o := range outs {
		if !o.ok {
			res.Failed++
			fmt.Fprintf(os.Stderr, "bench: %s job %d failed: %s\n", w.name, o.job, o.err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// sampleRSS reads VmRSS every period until the returned function is called,
// which stops the sampling and returns the mean in MiB.
func sampleRSS(period time.Duration) (stop func() float64) {
	quit, mean := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		sum, n := procStatusMiB("VmRSS"), 1.0
		for {
			select {
			case <-tick.C:
				sum, n = sum+procStatusMiB("VmRSS"), n+1
			case <-quit:
				mean <- sum / n
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-mean
	}
}
