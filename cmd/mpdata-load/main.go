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
// floor, and cancellation-aware sleeps — bounded by -retries. The exit status
// is non-zero if any job fails, so scripts can gate on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
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

// parseList parses a comma-separated flag value item by item, skipping blank
// items; an empty list is an error naming what.
func parseList[T any](s, what string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		if item := strings.TrimSpace(part); item != "" {
			v, err := parse(item)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s given", what)
	}
	return out, nil
}

// parseWorkload resolves one strategy arm; a +core suffix selects core
// islands.
func parseWorkload(name string) (workload, error) {
	w := workload{name: name, strategy: name}
	if base, ok := strings.CutSuffix(strings.ToLower(name), "+core"); ok {
		w.strategy, w.coreIslands = base, true
	}
	_, err := serve.ParseStrategy(w.strategy)
	return w, err
}

// parseSolver resolves a catalog solver name to its canonical form
// (solver.Lookup accepts case/space variants).
func parseSolver(name string) (string, error) {
	entry, err := solver.Lookup(name)
	if err != nil {
		return "", err
	}
	return entry.Name, nil
}

func parseGrid(g string) (string, error) {
	_, err := serve.ParseGrid(g)
	return g, err
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
	pin := flag.Bool("pin", false, "pin jobs to the requested config (opt out of server-side autotuning)")
	streamed := flag.Bool("streamed", false, "submit streamed (out-of-core) jobs: the server tiles each domain under -budget-mb (docs/STREAMING.md)")
	budgetMB := flag.Int("budget-mb", 0, "memory_budget_mb of streamed jobs (0 = server default; requires -streamed)")
	streamID := flag.String("stream-id", "", "base stream_id of streamed jobs; each job gets a -<n> suffix so durable stores never collide across the rotation (requires -streamed)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job wait timeout")
	retries := flag.Int("retries", 8, "max submission attempts per job (admission rejections)")
	retryInitial := flag.Duration("retry-initial", 100*time.Millisecond, "base of the exponential retry backoff")
	retryMax := flag.Duration("retry-max", 5*time.Second, "cap on the exponential retry component")
	flag.Parse()

	if *jobs <= 0 || *concurrency <= 0 {
		log.Fatal("jobs and concurrency must be positive")
	}
	loads, err := parseList(*strategies, "strategies", parseWorkload)
	if err != nil {
		log.Fatal(err)
	}
	grids, err := parseList(*gridsFlag, "grids", parseGrid)
	if err != nil {
		log.Fatal(err)
	}
	solvers, err := parseList(*solversFlag, "solvers", parseSolver)
	if err != nil {
		log.Fatal(err)
	}
	if !*streamed && (*budgetMB != 0 || *streamID != "") {
		log.Fatal("-budget-mb and -stream-id require -streamed")
	}
	// Validate every (strategy, grid, solver) template once, client-side,
	// by the server's own admission check — a bad flag (a non-streamable
	// solver under -streamed, a grid violating a solver's domain constraint)
	// fails fast instead of 100 times.
	template := serve.Spec{
		Steps: *steps, Processors: *p, Pin: *pin,
		Streamed: *streamed, MemoryBudgetMB: *budgetMB,
	}
	// specFor is job n's spec on one (strategy, grid, solver) arm.
	specFor := func(w workload, g, sv string, n int64) serve.Spec {
		s := template
		s.Strategy, s.CoreIslands, s.Grid, s.Solver = w.strategy, w.coreIslands, g, sv
		if *streamID != "" {
			// Per-job suffix: stores are keyed by stream_id, and a shared
			// one would make rotating grids/strategies fight over a single
			// checkpoint.
			s.StreamID = fmt.Sprintf("%s-%d", *streamID, n)
		}
		return s
	}
	for _, w := range loads {
		for _, g := range grids {
			for _, sv := range solvers {
				if err := specFor(w, g, sv, 0).Validate(); err != nil {
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
				spec := specFor(w, grids[(n/int64(len(loads)))%int64(len(grids))],
					solvers[(n/int64(len(loads)*len(grids)))%int64(len(solvers))], n)
				out := runOne(ctx, client, spec, w.name, *timeout, policy)
				mu.Lock()
				outcomes = append(outcomes, out)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed := summarize(outcomes, elapsed, rejected.Load())
	printServerMetrics(ctx, client)
	if failed > 0 {
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
	}
	return out
}

// summarize prints the aggregate and per-strategy report and returns the
// number of failed jobs, which fail the run.
func summarize(outcomes []jobOutcome, elapsed time.Duration, rejected int64) int {
	var ok, failed, canceled, hits, explored, reroutes int
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
	if len(latencies) > 0 {
		fmt.Printf("latency: p50 %s  p90 %s  p99 %s  max %s\n",
			pct(latencies, 50), pct(latencies, 90), pct(latencies, 99), pct(latencies, 100))
	}
	for _, name := range sortedKeys(perStrategy) {
		ls := perStrategy[name]
		fmt.Printf("  %-16s %3d jobs  p50 %s  max %s\n", name, len(ls), pct(ls, 50), pct(ls, 100))
		for _, line := range sortedKeys(configs[name]) {
			fmt.Printf("      %3d x %s\n", configs[name][line], line)
		}
	}
	// Per-solver breakdown: the mixed-traffic view of a -solvers rotation,
	// printed only when more than one solver ran (a single-solver run's
	// numbers equal the aggregate above).
	if len(perSolver) > 1 {
		fmt.Println("per-solver:")
		for _, name := range sortedKeys(perSolver) {
			ls := perSolver[name]
			fmt.Printf("  %-10s %3d jobs  p50 %s  p99 %s  max %s\n",
				name, len(ls), pct(ls, 50), pct(ls, 99), pct(ls, 100))
		}
	}
	if explored > 0 {
		fmt.Printf("tuner exploration probes: %d jobs\n", explored)
	}
	if reroutes > 0 {
		fmt.Printf("replica-fault reroutes survived: %d\n", reroutes)
	}
	return failed
}

// pct returns the q-th percentile of the (unsorted) latencies by nearest
// rank: the smallest latency at least q% of them do not exceed.
func pct(ds []time.Duration, q int) time.Duration {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[max((len(sorted)*q+99)/100-1, 0)].Round(time.Millisecond)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printServerMetrics scrapes the target's counters — both the single-replica
// serve_* series and the router's fleet_* series, whichever the target
// exposes — so the operator (and the CI smoke script) sees the server-side
// view.
func printServerMetrics(ctx context.Context, client *serveclient.Client) {
	m, err := client.Metrics(ctx)
	if err != nil {
		log.Printf("metrics scrape failed: %v", err)
		return
	}
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
		}
	}
}
