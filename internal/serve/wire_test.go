package serve_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// TestSubmitRejectionsOnTheWire pins two 400s of POST /v1/jobs. The ablation
// fields are no part of the wire format: a spec carrying one is refused by
// name, not run with the field ignored. And a ksteps above 1 is refused with
// the message Normalize gives every front end (mpdata-sim included).
func TestSubmitRejectionsOnTheWire(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, EngineFactory: gatedFactory(make(chan struct{})), Logf: t.Logf})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, c := range []struct{ body, want string }{
		{`{"grid":"32x16x8","steps":1,"disable_fusion":true}`, `unknown field \"disable_fusion\"`},
		{`{"grid":"32x16x8","steps":1,"disable_halo_exchange":true}`, `unknown field \"disable_halo_exchange\"`},
		{`{"grid":"32x16x8","steps":5,"ksteps":2}`, "ksteps must be 0 or 1, got 2: jobs advance one step at a time"},
	} {
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var raw strings.Builder
		_, _ = io.Copy(&raw, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(raw.String(), c.want) {
			t.Errorf("POST %s = %d %s, want 400 mentioning %s", c.body, resp.StatusCode, raw.String(), c.want)
		}
	}
	if _, err := (serve.Spec{Grid: "32x16x8", Steps: 5, KSteps: 2}).Normalize(); err == nil {
		t.Error("Normalize accepts ksteps 2")
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		// The old float rendering int(0.3+0.999) truncated to 0 — a header
		// telling clients to retry immediately, which is the storm.
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Nanosecond, 3},
	}
	for _, c := range cases {
		if got := serve.RetryAfterSeconds(c.d); got != c.want {
			t.Errorf("RetryAfterSeconds(%s) = %d, want %d", c.d, got, c.want)
		}
	}
}

// TestHTTPRetryAfterNeverZero pins the wire contract for sub-second backoff
// hints: the Retry-After header must render as an integer >= 1, never "0"
// (which clients read as "retry now" — the storm amplifier).
func TestHTTPRetryAfterNeverZero(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, QueueDepth: 1, RetryAfter: 300 * time.Millisecond,
		EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	defer close(gate)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := serveclient.New(hs.URL)
	ctx := t.Context()

	running, err := client.Submit(ctx, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := srv.Job(running.ID)
	waitState(t, j, serve.StateRunning)
	if _, err := client.Submit(ctx, smallSpec(1)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(hs.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"grid":"32x16x8","steps":1,"processors":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue = %d, want 429", resp.StatusCode)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q for a 300ms hint, want an integer >= 1", resp.Header.Get("Retry-After"))
	}
}

// TestStepLabelCardinalityBounded asserts ObserveStep folds unknown strategy
// labels into "other" instead of minting an unbounded time series per input
// string.
func TestStepLabelCardinalityBounded(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()
	m := srv.Metrics()
	for i := 0; i < 100; i++ {
		m.ObserveStep("hostile-label-"+strconv.Itoa(i), time.Millisecond)
	}
	m.ObserveStep("islands-of-cores", time.Millisecond)

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	exposition, err := serveclient.New(hs.URL).Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposition, "hostile-label-") {
		t.Fatal("hostile strategy label leaked into the metrics exposition")
	}
	if !strings.Contains(exposition, `serve_step_seconds_count{strategy="other"} 100`) {
		t.Fatal("unknown labels were not folded into the bounded \"other\" series")
	}
	if !strings.Contains(exposition, `serve_step_seconds_count{strategy="islands-of-cores"} 1`) {
		t.Fatal("known strategy label missing from the exposition")
	}
}

// TestSolverLabelCardinalityBounded asserts the per-solver job counters fold
// names outside the solver catalog into "other" instead of minting a labeled
// series per input string, and that the unlabeled totals existing scrapers
// parse survive alongside the labels.
func TestSolverLabelCardinalityBounded(t *testing.T) {
	srv := serve.NewServer(serve.Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()
	m := srv.Metrics()
	for i := 0; i < 50; i++ {
		m.JobSubmitted("evil-solver-" + strconv.Itoa(i))
	}
	m.JobSubmitted("heat")
	m.JobSucceeded("heat")

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	exposition, err := serveclient.New(hs.URL).Metrics(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(exposition, "evil-solver-") {
		t.Fatal("unknown solver label leaked into the metrics exposition")
	}
	if !strings.Contains(exposition, `serve_jobs_submitted_total{solver="other"} 50`) {
		t.Fatal("unknown solver labels were not folded into the bounded \"other\" series")
	}
	if !strings.Contains(exposition, `serve_jobs_submitted_total{solver="heat"} 1`) ||
		!strings.Contains(exposition, `serve_jobs_succeeded_total{solver="heat"} 1`) {
		t.Fatal("per-solver job counters missing from the exposition")
	}
	if !strings.Contains(exposition, "\nserve_jobs_submitted_total 51\n") {
		t.Fatal("unlabeled serve_jobs_submitted_total line missing or wrong")
	}
}

// TestStatsEndpoint pins the /v1/stats probe the fleet router polls.
func TestStatsEndpoint(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, QueueDepth: 4, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	defer close(gate)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := serveclient.New(hs.URL)
	ctx := t.Context()

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SlotsTotal != 1 || st.QueueCapacity != 4 || st.Draining || st.Running != 0 {
		t.Fatalf("idle stats = %+v", st)
	}

	running, err := client.Submit(ctx, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	j, _ := srv.Job(running.ID)
	waitState(t, j, serve.StateRunning)
	st, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Running != 1 || st.SlotsBusy != 1 {
		t.Fatalf("busy stats = %+v, want 1 running on 1 busy slot", st)
	}
}

// TestDoneEventCarriesResultAndStatsCarryCapacity pins the two wire fields the
// fleet router's push path reads: the terminal "done" event of a succeeded job
// carries its result (live stream and replay alike; a failed job's carries
// none), and /v1/stats advertises the engine-cache capacity.
func TestDoneEventCarriesResultAndStatsCarryCapacity(t *testing.T) {
	gate := make(chan struct{})
	srv := serve.NewServer(serve.Options{
		Slots: 1, MaxCached: 3, EngineFactory: gatedFactory(gate), Logf: t.Logf,
	})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := serveclient.New(hs.URL)
	ctx := t.Context()

	lastEvent := func(id string, onFirst func()) serve.Event {
		t.Helper()
		var last serve.Event
		if err := client.Events(ctx, id, func(ev serve.Event) bool {
			if onFirst != nil {
				onFirst()
				onFirst = nil
			}
			last = ev
			return true
		}); err != nil {
			t.Fatalf("events stream of %s: %v", id, err)
		}
		return last
	}

	st, err := client.Submit(ctx, smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	// A second job, canceled while the first still holds the slot: its done
	// event has no result to carry.
	bad, err := client.Submit(ctx, smallSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Cancel(ctx, bad.ID); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(bad.ID, nil); ev.Type != "done" || ev.State != serve.StateCanceled || ev.Result != nil {
		t.Fatalf("canceled job's last event = %+v, want done/canceled without a result", ev)
	}

	// Open the gate only once the stream is attached: the done event below
	// is the live one, not the replay.
	live := lastEvent(st.ID, func() { close(gate) })
	for name, ev := range map[string]serve.Event{"live": live, "replayed": lastEvent(st.ID, nil)} {
		if ev.Type != "done" || ev.State != serve.StateSucceeded {
			t.Fatalf("%s last event = %+v, want done/succeeded", name, ev)
		}
		if ev.Result == nil || ev.Result.Steps != 2 || ev.Result.Checksums.Sum != 1 {
			t.Fatalf("%s done event result = %+v, want the job's result (2 steps, sum 1)", name, ev.Result)
		}
	}
	polled, err := client.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if *polled.Result != *live.Result {
		t.Fatalf("done event result %+v differs from the polled result %+v", live.Result, polled.Result)
	}

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if got, ok := raw["cache_capacity"].(float64); !ok || got != 3 {
		t.Fatalf("/v1/stats cache_capacity = %v, want 3 (MaxCached)", raw["cache_capacity"])
	}
	if def := serve.NewPool(1, 0, nil).Stats().MaxCached; def != 8 {
		t.Fatalf("default cache capacity = %d, want 8", def)
	}
}
