// Command mpdata-load drives an mpdata-serve replica or an mpdata-router
// fleet with N concurrent clients and prints a throughput/latency summary —
// the serving subsystem's load generator and end-to-end smoke check.
//
//	mpdata-serve -addr 127.0.0.1:8080 &
//	mpdata-load -addr http://127.0.0.1:8080 -jobs 100 -concurrency 8
//
// Jobs rotate round-robin over -strategies (all four by default: original,
// 3+1d, islands, islands+core) crossed with -grids and -solvers, so a fleet
// sees mixed traffic with several distinct engine cache keys — including
// mixed-solver traffic when -solvers names more than one catalog entry
// (docs/SOLVERS.md). Admission-control
// rejections (429/503) are retried through serveclient.BackoffPolicy — capped
// exponential backoff with full jitter, the server's Retry-After hint as a
// floor, and cancellation-aware sleeps — bounded by -retries. -slo reports
// the fraction of successful jobs finishing inside the target latency, and
// -json writes the summary for benchmark trajectories. The exit status is
// non-zero if any job fails, so scripts can gate on it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
	"islands/internal/solver"
)

// workload is one strategy arm of the rotation.
type workload struct {
	name        string
	strategy    string
	coreIslands bool
}

func parseWorkloads(s string) ([]workload, error) {
	var out []workload
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		w := workload{name: name, strategy: name}
		if base, ok := strings.CutSuffix(strings.ToLower(name), "+core"); ok {
			w.strategy = base
			w.coreIslands = true
		}
		if _, err := serve.ParseStrategy(w.strategy); err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no strategies given")
	}
	return out, nil
}

// parseSolvers resolves a comma-separated list of catalog solver names to
// their canonical forms (solver.Lookup accepts case/space variants).
func parseSolvers(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		entry, err := solver.Lookup(name)
		if err != nil {
			return nil, err
		}
		out = append(out, entry.Name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no solvers given")
	}
	return out, nil
}

func parseGrids(s string) ([]string, error) {
	var out []string
	for _, part := range strings.Split(s, ",") {
		g := strings.TrimSpace(part)
		if g == "" {
			continue
		}
		if _, err := serve.ParseGrid(g); err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no grids given")
	}
	return out, nil
}

// jobOutcome is one completed submission's accounting.
type jobOutcome struct {
	strategy string
	solver   string
	state    serve.JobState
	err      string
	latency  time.Duration
	cacheHit bool
	reroutes int
	// requested/tuned are the server's config labels; tuned is empty when
	// no tuner decided for the job.
	requested string
	tuned     string
	explored  bool
	// silentKFallback marks a job that ran at a different temporal-blocking
	// factor than requested without the server reporting either a tuned
	// substitution or the executor's fallback reason — a contract violation
	// the load generator turns into a non-zero exit.
	silentKFallback bool
}

// summaryJSON is the -json report consumed by scripts/serve-bench.sh and the
// BENCH_serve.json trajectory.
type summaryJSON struct {
	Label          string  `json:"label,omitempty"`
	Jobs           int     `json:"jobs"`
	OK             int     `json:"ok"`
	Failed         int     `json:"failed"`
	Canceled       int     `json:"canceled"`
	RetriedRejects int64   `json:"retried_rejections"`
	Reroutes       int     `json:"reroutes"`
	WallSeconds    float64 `json:"wall_seconds"`
	JobsPerSecond  float64 `json:"jobs_per_second"`
	P50Ms          float64 `json:"p50_ms"`
	P90Ms          float64 `json:"p90_ms"`
	P99Ms          float64 `json:"p99_ms"`
	MaxMs          float64 `json:"max_ms"`
	CacheHits      int     `json:"cache_hits"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	SLOMs          float64 `json:"slo_ms,omitempty"`
	SLOAttainment  float64 `json:"slo_attainment,omitempty"`
	// PerSolver breaks successful-job latency (and SLO attainment when -slo
	// is set) down by catalog solver — the mixed-traffic view of a -solvers
	// rotation.
	PerSolver     map[string]solverSummary `json:"per_solver,omitempty"`
	ServerMetrics map[string]float64       `json:"server_metrics,omitempty"`
}

// solverSummary is one catalog solver's slice of the run.
type solverSummary struct {
	Jobs          int     `json:"jobs"`
	P50Ms         float64 `json:"p50_ms"`
	P99Ms         float64 `json:"p99_ms"`
	SLOAttainment float64 `json:"slo_attainment,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpdata-load: ")
	addr := flag.String("addr", "http://127.0.0.1:8080", "server or router base URL")
	jobs := flag.Int("jobs", 100, "total jobs to run")
	concurrency := flag.Int("concurrency", 8, "concurrent clients")
	gridsFlag := flag.String("grids", "48x32x8", "comma-separated job domain sizes NIxNJxNK (rotated for mixed traffic)")
	steps := flag.Int("steps", 5, "time steps per job")
	p := flag.Int("p", 2, "simulated UV 2000 sockets per job")
	strategies := flag.String("strategies", "original,3+1d,islands,islands+core", "comma-separated strategy rotation (suffix +core for core islands)")
	solversFlag := flag.String("solvers", "mpdata", "comma-separated catalog solver rotation for mixed-solver traffic (docs/SOLVERS.md)")
	ksteps := flag.Int("ksteps", 0, "temporal blocking factor requested per job (islands strategies only)")
	pin := flag.Bool("pin", false, "pin jobs to the requested config (opt out of server-side autotuning)")
	streamed := flag.Bool("streamed", false, "submit streamed (out-of-core) jobs: the server tiles each domain under -budget-mb (docs/STREAMING.md)")
	budgetMB := flag.Int("budget-mb", 0, "memory_budget_mb of streamed jobs (0 = server default; requires -streamed)")
	streamID := flag.String("stream-id", "", "base stream_id of streamed jobs; each job gets a -<n> suffix so durable stores never collide across the rotation (requires -streamed)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job wait timeout")
	retries := flag.Int("retries", 8, "max submission attempts per job (admission rejections)")
	retryInitial := flag.Duration("retry-initial", 100*time.Millisecond, "base of the exponential retry backoff")
	retryMax := flag.Duration("retry-max", 5*time.Second, "cap on the exponential retry component")
	slo := flag.Duration("slo", 0, "target end-to-end latency; report attainment when set")
	jsonPath := flag.String("json", "", "write the run summary as JSON to this file")
	label := flag.String("label", "", "label recorded in the -json summary")
	flag.Parse()

	if *jobs <= 0 || *concurrency <= 0 {
		log.Fatal("jobs and concurrency must be positive")
	}
	loads, err := parseWorkloads(*strategies)
	if err != nil {
		log.Fatal(err)
	}
	grids, err := parseGrids(*gridsFlag)
	if err != nil {
		log.Fatal(err)
	}
	solvers, err := parseSolvers(*solversFlag)
	if err != nil {
		log.Fatal(err)
	}
	if !*streamed && (*budgetMB != 0 || *streamID != "") {
		log.Fatal("-budget-mb and -stream-id require -streamed")
	}
	// Validate every (strategy, grid, solver) template once, client-side,
	// by the server's own admission check — a bad flag (a non-streamable
	// solver under -streamed, a grid violating a solver's domain constraint,
	// -steps no multiple of -ksteps) fails fast instead of 100 times.
	template := serve.Spec{
		Steps: *steps, Processors: *p, KSteps: *ksteps, Pin: *pin,
		Streamed: *streamed, MemoryBudgetMB: *budgetMB,
	}
	for _, w := range loads {
		for _, g := range grids {
			for _, sv := range solvers {
				s := template
				s.Strategy = w.strategy
				s.CoreIslands = w.coreIslands
				s.Grid = g
				s.Solver = sv
				if *streamID != "" {
					s.StreamID = *streamID + "-0"
				}
				if err := s.Validate(); err != nil {
					log.Fatalf("bad spec for %s/%s @ %s: %v", sv, w.name, g, err)
				}
			}
		}
	}

	// Ctrl-C / SIGTERM cancels the root context: in-flight submissions stop
	// mid-backoff instead of spinning against a server that is going away.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := serveclient.New(*addr)
	if err := client.Healthz(ctx); err != nil {
		log.Fatalf("server not healthy at %s: %v", *addr, err)
	}

	var (
		next     atomic.Int64
		rejected atomic.Int64
		mu       sync.Mutex
		outcomes []jobOutcome
		wg       sync.WaitGroup
	)
	policy := serveclient.BackoffPolicy{
		Initial:     *retryInitial,
		Max:         *retryMax,
		MaxAttempts: *retries,
		OnRetry:     func(int, time.Duration, error) { rejected.Add(1) },
	}
	start := time.Now()
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				if n >= int64(*jobs) || ctx.Err() != nil {
					return
				}
				w := loads[n%int64(len(loads))]
				spec := template
				spec.Strategy = w.strategy
				spec.CoreIslands = w.coreIslands
				spec.Grid = grids[(n/int64(len(loads)))%int64(len(grids))]
				spec.Solver = solvers[(n/int64(len(loads)*len(grids)))%int64(len(solvers))]
				if *streamID != "" {
					// Per-job suffix: stores are keyed by stream_id, and a
					// shared one would make rotating grids/strategies fight
					// over a single checkpoint.
					spec.StreamID = fmt.Sprintf("%s-%d", *streamID, n)
				}
				out := runOne(ctx, client, spec, w.name, *timeout, policy)
				mu.Lock()
				outcomes = append(outcomes, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sum := summarize(outcomes, elapsed, rejected.Load(), *slo)
	sum.Label = *label
	sum.ServerMetrics = printServerMetrics(ctx, client)
	if *jsonPath != "" {
		if err := writeSummary(*jsonPath, sum); err != nil {
			log.Fatalf("write -json summary: %v", err)
		}
	}
	if sum.Failed > 0 {
		os.Exit(1)
	}
}

// runOne submits one job — retrying admission rejections under the shared
// backoff policy — and waits for its terminal state.
func runOne(ctx context.Context, client *serveclient.Client, spec serve.Spec, name string, timeout time.Duration, policy serveclient.BackoffPolicy) jobOutcome {
	t0 := time.Now()
	st, err := client.SubmitRetry(ctx, spec, policy)
	if err != nil {
		return jobOutcome{strategy: name, solver: spec.Solver, state: serve.StateFailed, err: fmt.Sprintf("submit: %v", err)}
	}
	wctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	final, err := client.Wait(wctx, st.ID, 25*time.Millisecond)
	if err != nil {
		return jobOutcome{strategy: name, solver: spec.Solver, state: serve.StateFailed, err: fmt.Sprintf("wait: %v", err)}
	}
	out := jobOutcome{
		strategy: name, solver: spec.Solver, state: final.State, err: final.Error,
		latency: time.Since(t0), reroutes: final.Reroutes,
	}
	if r := final.Result; r != nil {
		out.cacheHit = r.CacheHit
		out.requested = r.RequestedConfig
		out.tuned = r.TunedConfig
		out.explored = r.Explored
		// The silent-fallback gate: the engine compiled a different k than
		// requested, no tuner substitution explains it, and the executor's
		// fallback reason is missing. Streamed jobs are exempt — their k is
		// derived from the memory budget by design (reported in r.Stream.K).
		want := max(spec.KSteps, 1)
		if !spec.Streamed && r.KSteps != 0 && r.KSteps != want && !r.Tuned && !r.Explored && r.KStepFallback == "" {
			out.silentKFallback = true
		}
	}
	return out
}

// summarize prints the aggregate and per-strategy report and returns the
// machine-readable summary. Failed jobs and silent k-step fallbacks both
// fail the run (silent fallbacks are folded into Failed).
func summarize(outcomes []jobOutcome, elapsed time.Duration, rejected int64, slo time.Duration) summaryJSON {
	var ok, failed, silent, canceled, hits, explored, reroutes int
	latencies := make([]time.Duration, 0, len(outcomes))
	perStrategy := map[string][]time.Duration{}
	perSolver := map[string][]time.Duration{}
	// configs counts requested -> served config pairs per strategy arm.
	configs := map[string]map[string]int{}
	for _, o := range outcomes {
		reroutes += o.reroutes
		switch o.state {
		case serve.StateSucceeded:
			ok++
			latencies = append(latencies, o.latency)
			perStrategy[o.strategy] = append(perStrategy[o.strategy], o.latency)
			perSolver[o.solver] = append(perSolver[o.solver], o.latency)
			if o.cacheHit {
				hits++
			}
			if o.explored {
				explored++
			}
			if o.requested != "" {
				served := o.tuned
				if served == "" {
					served = o.requested
				}
				line := o.requested
				if served != o.requested {
					line = o.requested + "  ->  " + served
				}
				if configs[o.strategy] == nil {
					configs[o.strategy] = map[string]int{}
				}
				configs[o.strategy][line]++
			}
			if o.silentKFallback {
				silent++
				log.Printf("SILENT K-STEP FALLBACK [%s]: engine ran a different ksteps than requested with no fallback reason", o.strategy)
			}
		case serve.StateCanceled:
			canceled++
		default:
			failed++
			log.Printf("FAILED [%s]: %s", o.strategy, o.err)
		}
	}
	fmt.Printf("jobs: %d ok, %d failed, %d canceled (%d admission rejections retried, %d reroutes)\n",
		ok, failed, canceled, rejected, reroutes)
	fmt.Printf("wall: %.2fs, throughput %.1f jobs/s, schedule-cache hits %d/%d\n",
		elapsed.Seconds(), float64(len(outcomes))/elapsed.Seconds(), hits, ok)
	sum := summaryJSON{
		Jobs: len(outcomes), OK: ok, Failed: failed + silent, Canceled: canceled,
		RetriedRejects: rejected, Reroutes: reroutes,
		WallSeconds:   elapsed.Seconds(),
		JobsPerSecond: float64(len(outcomes)) / elapsed.Seconds(),
		CacheHits:     hits,
	}
	if ok > 0 {
		sum.CacheHitRate = float64(hits) / float64(ok)
	}
	if len(latencies) > 0 {
		sum.P50Ms = ms(pct(latencies, 50))
		sum.P90Ms = ms(pct(latencies, 90))
		sum.P99Ms = ms(pct(latencies, 99))
		sum.MaxMs = ms(pct(latencies, 100))
		fmt.Printf("latency: p50 %s  p90 %s  p99 %s  max %s\n",
			pct(latencies, 50), pct(latencies, 90), pct(latencies, 99), pct(latencies, 100))
		if slo > 0 {
			within := 0
			for _, l := range latencies {
				if l <= slo {
					within++
				}
			}
			sum.SLOMs = ms(slo)
			sum.SLOAttainment = float64(within) / float64(len(latencies))
			fmt.Printf("slo: %d/%d jobs within %s (%.1f%% attainment)\n",
				within, len(latencies), slo, 100*sum.SLOAttainment)
		}
	}
	names := make([]string, 0, len(perStrategy))
	for name := range perStrategy {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := perStrategy[name]
		fmt.Printf("  %-16s %3d jobs  p50 %s  max %s\n", name, len(ls), pct(ls, 50), pct(ls, 100))
		lines := make([]string, 0, len(configs[name]))
		for line := range configs[name] {
			lines = append(lines, line)
		}
		sort.Strings(lines)
		for _, line := range lines {
			fmt.Printf("      %3d x %s\n", configs[name][line], line)
		}
	}
	// Per-solver breakdown: the mixed-traffic view of a -solvers rotation.
	// Always recorded in the JSON summary; printed only when more than one
	// solver ran (a single-solver run's numbers equal the aggregate above).
	if len(perSolver) > 0 {
		sum.PerSolver = map[string]solverSummary{}
		solverNames := make([]string, 0, len(perSolver))
		for name := range perSolver {
			solverNames = append(solverNames, name)
		}
		sort.Strings(solverNames)
		if len(solverNames) > 1 {
			fmt.Println("per-solver:")
		}
		for _, name := range solverNames {
			ls := perSolver[name]
			ss := solverSummary{Jobs: len(ls), P50Ms: ms(pct(ls, 50)), P99Ms: ms(pct(ls, 99))}
			line := fmt.Sprintf("  %-10s %3d jobs  p50 %s  p99 %s  max %s",
				name, len(ls), pct(ls, 50), pct(ls, 99), pct(ls, 100))
			if slo > 0 {
				within := 0
				for _, l := range ls {
					if l <= slo {
						within++
					}
				}
				ss.SLOAttainment = float64(within) / float64(len(ls))
				line += fmt.Sprintf("  slo %d/%d (%.1f%%)", within, len(ls), 100*ss.SLOAttainment)
			}
			sum.PerSolver[name] = ss
			if len(solverNames) > 1 {
				fmt.Println(line)
			}
		}
	}
	if explored > 0 {
		fmt.Printf("tuner exploration probes: %d jobs\n", explored)
	}
	if reroutes > 0 {
		fmt.Printf("replica-fault reroutes survived: %d\n", reroutes)
	}
	if silent > 0 {
		fmt.Printf("silent k-step fallbacks: %d jobs (failing the run)\n", silent)
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pct returns the q-th percentile of the (unsorted) latencies.
func pct(ds []time.Duration, q int) time.Duration {
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted)*q/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Round(time.Millisecond)
}

// printServerMetrics scrapes the target's counters — both the single-replica
// serve_* series and the router's fleet_* series, whichever the target
// exposes — so the operator (and the CI smoke script) sees the server-side
// view. The scraped values are also returned for the -json summary.
func printServerMetrics(ctx context.Context, client *serveclient.Client) map[string]float64 {
	m, err := client.Metrics(ctx)
	if err != nil {
		log.Printf("metrics scrape failed: %v", err)
		return nil
	}
	out := map[string]float64{}
	for _, series := range []string{
		"serve_jobs_succeeded_total", "serve_jobs_failed_total",
		"serve_jobs_rejected_total",
		"serve_schedule_cache_hits_total", "serve_schedule_cache_misses_total",
		"serve_tuner_decisions_total", "serve_tuner_tuned_total",
		"serve_tuner_explored_total",
		"serve_stream_jobs_total", "serve_stream_tiles_total",
		"serve_stream_bytes_read_total", "serve_stream_bytes_written_total",
		"serve_stream_resumed_total", "serve_stream_disk_bw_bytes",
		"fleet_jobs_succeeded_total", "fleet_jobs_failed_total",
		"fleet_jobs_rejected_total", "fleet_placements_total",
		"fleet_steals_total", "fleet_reroutes_total",
		"fleet_cache_hits_total", "fleet_cache_misses_total",
		"fleet_replicas_healthy", "fleet_replicas_total",
	} {
		if v, found := serveclient.MetricValue(m, series); found {
			fmt.Printf("server %s %g\n", series, v)
			out[series] = v
		}
	}
	return out
}

func writeSummary(path string, sum summaryJSON) error {
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
