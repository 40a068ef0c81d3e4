// Command mpdata-router runs the fleet coordinator: it consistent-hashes
// jobs by their engine CacheKey across N mpdata-serve replicas (cache
// affinity: a warm compiled engine for a given spec lives somewhere in the
// fleet, and no replica is given more specs than its engine cache holds),
// follows each job on its replica's event stream so completion is pushed
// rather than polled, steals work onto ring successors when the home
// replica's queue is saturated, aggregates fleet-wide backpressure into one
// honest 429, and reroutes jobs off replicas that die or drain mid-job.
//
//	mpdata-serve -addr 127.0.0.1:8081 &
//	mpdata-serve -addr 127.0.0.1:8082 &
//	mpdata-router -addr 127.0.0.1:8080 \
//	    -replicas http://127.0.0.1:8081,http://127.0.0.1:8082
//
// The router serves a replica's job routes through the same code (POST
// /v1/jobs, status, events, result, cancel, /healthz), so mpdata-load and
// serveclient work against it unchanged; GET /v1/fleet adds the membership
// view and /metrics is the fleet's. See
// docs/FLEET.md for the routing hash, the work-stealing rule, the
// backpressure semantics and the failure model.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"islands/internal/fleet"
	"islands/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpdata-router: ")
	defer func() {
		if p := recover(); p != nil {
			log.Fatalf("internal error: %v", p)
		}
	}()

	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for a random port)")
	replicas := flag.String("replicas", "", "comma-separated mpdata-serve base URLs (required)")
	vnodes := flag.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
	healthInterval := flag.Duration("health-interval", 250*time.Millisecond, "replica health probe period")
	failThreshold := flag.Int("fail-threshold", 2, "consecutive probe failures before a replica leaves the ring")
	pollInterval := flag.Duration("poll-interval", 50*time.Millisecond, "fallback pause: job completion is pushed over the replica's event stream; when a stream is refused or breaks the router asks for the job's status and waits this long before following again")
	maxReroutes := flag.Int("max-reroutes", 3, "replica-fault re-placements per job before it fails")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain window on SIGTERM")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("at least one -replicas URL is required")
	}

	router, err := fleet.NewRouter(fleet.Options{
		Replicas:       urls,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		FailThreshold:  *failThreshold,
		PollInterval:   *pollInterval,
		MaxReroutes:    *maxReroutes,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	about := fmt.Sprintf("(%d replicas)", len(urls))
	if err := serve.ListenAndDrain(*addr, router.Handler(), about, router.Drain, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}
