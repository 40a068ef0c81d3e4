// Command mpdata-serve runs the simulation serving subsystem as a long-lived
// daemon: a pool of pre-warmed, reusable runner slots behind an
// admission-controlled job queue, exposed over HTTP.
//
//	mpdata-serve -addr 127.0.0.1:8080 -slots 4 -queue 64
//
// API (see docs/SERVING.md for the full reference):
//
//	POST /v1/jobs              submit a simulation spec
//	GET  /v1/jobs/{id}         status + queue position
//	GET  /v1/jobs/{id}/events  SSE stream of per-step progress
//	GET  /v1/jobs/{id}/result  checksums, timings, optional profile
//	POST /v1/jobs/{id}/cancel  cancel a queued or running job
//	GET  /metrics              text exposition
//	GET  /healthz              readiness (503 while draining)
//
// On SIGTERM/SIGINT the server drains gracefully: it stops admitting,
// finishes queued and running jobs up to -drain-timeout, then aborts
// survivors (reported failed) and exits 0.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"islands/internal/serve"
	"islands/internal/topology"
	"islands/internal/tune"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpdata-serve: ")
	defer func() {
		if p := recover(); p != nil {
			log.Fatalf("internal error: %v", p)
		}
	}()

	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	slots := flag.Int("slots", 0, "runner slot capacity (0 = NumCPU / cores-per-team)")
	maxCached := flag.Int("max-cached", 0, "idle compiled-runner cache bound (0 = max(slots, 8))")
	queueDepth := flag.Int("queue", 64, "admission queue depth before 429 rejection")
	retryAfter := flag.Duration("retry-after", time.Second, "backoff hinted to rejected clients")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain window on SIGTERM")
	tuneOn := flag.Bool("tune", false, "autotune: map non-pinned jobs to the best-known config for their problem class (docs/TUNING.md)")
	tuneSeed := flag.Int64("tune-seed", 1, "autotuner random seed (reproducible exploration)")
	tuneEpsilon := flag.Float64("tune-epsilon", 0.1, "exploration probability per tuning decision (0 disables exploration)")
	tuneExplore := flag.Float64("tune-explore", 0.1, "cap on the fraction of served steps spent exploring")
	spillDir := flag.String("spill-dir", "", "root directory for streamed jobs' tile stores (\"\" = $TMPDIR/mpdata-spill; docs/STREAMING.md)")
	streamBudget := flag.Int("stream-budget-mb", 0, "default memory budget of streamed jobs whose spec leaves memory_budget_mb unset (0 = 512)")
	flag.Parse()

	h := topology.ThisHost()
	log.Printf("host: %v; the default %d islands run %d worker(s) each",
		h, serve.DefaultProcessors, h.Workers(serve.DefaultProcessors))

	var tuner *tune.Tuner
	if *tuneOn {
		eps := *tuneEpsilon
		if eps == 0 {
			eps = -1 // NewTuner: negative disables, zero means default
		}
		var err error
		tuner, err = serve.NewTuner(serve.TunerOptions{
			Seed:        *tuneSeed,
			Epsilon:     eps,
			ExploreFrac: *tuneExplore,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("autotuner enabled (seed %d, epsilon %g, explore budget %g)",
			*tuneSeed, *tuneEpsilon, *tuneExplore)
	}

	srv := serve.NewServer(serve.Options{
		Slots:          *slots,
		MaxCached:      *maxCached,
		QueueDepth:     *queueDepth,
		RetryAfter:     *retryAfter,
		Tuner:          tuner,
		SpillDir:       *spillDir,
		StreamBudgetMB: *streamBudget,
		Logf:           log.Printf,
	})

	about := fmt.Sprintf("(%d slots, queue depth %d)", srv.PoolStats().Capacity, *queueDepth)
	if err := serve.ListenAndDrain(*addr, srv.Handler(), about, srv.Drain, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}
