package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/fleet"
	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

const (
	// pollEvery is the client's status poll period — the only wait the
	// router speaks (SSE is replica-only), so both fronts are driven alike.
	pollEvery = 2 * time.Millisecond
	// jobTimeout counts a job as failed when it has no verified result.
	jobTimeout = 60 * time.Second
)

// outcome is one finished job as its caller saw it. Latency runs from the
// instant the client sends the job to the instant its checksums are verified.
type outcome struct {
	job        int           // index into the job list
	class      int           // first class of the job
	start, end time.Duration // since the run's epoch
	ok         bool
	err        string
	cellSteps  float64
	polls      int
	frontID    string
	result     *serve.Result // served jobs
}

func (o outcome) latencyMs() float64 { return ms(o.end - o.start) }

// target runs one job to a verified result.
type target interface {
	run(ctx context.Context, client int, classes []class, j job, o *outcome, rec *recorder)
}

// engineTarget drives engines directly: no server, no queue, no HTTP.
type engineTarget struct {
	engines []serve.Engine // by class index
	refs    *references
}

func (t *engineTarget) run(_ context.Context, _ int, classes []class, j job, o *outcome, _ *recorder) {
	o.ok = true
	for _, ci := range j {
		c, eng := classes[ci], t.engines[ci]
		if err := eng.Reset(); err != nil {
			o.ok, o.err = false, err.Error()
			return
		}
		for s := 0; s < c.ns.Steps; s += c.ns.StepsPerDispatch() {
			if err := eng.Step(); err != nil {
				o.ok, o.err = false, err.Error()
				return
			}
		}
		if !t.refs.check(c.ns, eng.Checksums()) {
			o.ok, o.err = false, "checksum mismatch on "+c.name
			return
		}
	}
}

// httpTarget submits to a server or router and polls until terminal.
type httpTarget struct {
	clients []*serveclient.Client // one per client goroutine: one connection each
	refs    *references
}

func (t *httpTarget) run(ctx context.Context, client int, classes []class, j job, o *outcome, rec *recorder) {
	c := classes[j[0]]
	cl := t.clients[client]
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()

	// open records a client-side span (traced run only) and returns what
	// closes it.
	open := func(name string) func() {
		if rec == nil {
			return func() {}
		}
		i := rec.add(span{Name: name, Track: fmt.Sprintf("client%d", client), Job: o.job, Parent: -1, Start: rec.now()})
		return func() { rec.end(i) }
	}
	done := open("client.submit")
	st, err := cl.Submit(ctx, c.spec)
	done()
	if err != nil {
		o.err = "submit: " + err.Error()
		return
	}
	o.frontID = st.ID

	defer open("client.wait")()
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		if st, err = cl.Status(ctx, st.ID); err != nil {
			o.err = "status: " + err.Error()
			return
		}
		o.polls++
	}
	switch {
	case st.State != serve.StateSucceeded || st.Result == nil:
		o.err = fmt.Sprintf("job %s %s: %s", st.ID, st.State, st.Error)
	case !t.refs.check(c.ns, st.Result.Checksums):
		o.err = "checksum mismatch on " + c.name
	default:
		o.ok, o.result = true, st.Result
	}
}

// runLoop is the closed loop: each client sends its next job only after the
// previous one is verified. It takes jobs from the list in order (wrapping)
// and stops handing them out at the deadline or after limit jobs, whichever
// is set; jobs in flight then finish. rec, when set, gets a root span per job.
func runLoop(e *env, jobs []job, clients int, deadline time.Duration, limit int, rec *recorder) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []outcome
		wg   sync.WaitGroup
	)
	epoch := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if (limit > 0 && n >= limit) || (deadline > 0 && time.Since(epoch) >= deadline) {
					return
				}
				j := jobs[n%len(jobs)]
				o := outcome{job: n, class: j[0]}
				for _, ci := range j {
					o.cellSteps += e.w.classes[ci].cellSteps()
				}
				root := -1
				if rec != nil {
					root = rec.add(span{Name: "job", Track: fmt.Sprintf("client%d", cl), Job: n, Parent: -1, Start: rec.now()})
				}
				o.start = time.Since(epoch)
				e.target.run(context.Background(), cl, e.w.classes, j, &o, rec)
				o.end = time.Since(epoch)
				if rec != nil {
					rec.end(root)
				}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	return out
}

// env is one set-up instance of a workload: references computed, servers up
// (or engines compiled), warm-up done.
type env struct {
	w        *workload
	refs     *references
	target   target
	servers  []*serve.Server
	router   *fleet.Router
	spillDir string
	closers  []func()
}

func (e *env) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
}

// listen serves h on a fresh loopback port and returns its base URL.
func (e *env) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on close
	}()
	e.closers = append(e.closers, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + ln.Addr().String(), nil
}

// buildDir, relative to the checkout's root, is the one place a run writes:
// run.sh builds into it, streamed jobs keep their plane stores in it (a run
// may write only inside its checkout, so not /dev/shm; the fingerprint says
// what kind of filesystem it is) and the suite puts its trace files there.
const buildDir = ".bench_build"

// setUp brings a workload to the point where the first timed job can be
// sent. With rec set it wraps every layer boundary in span recording; the
// timed run passes nil and gets the plain factory and handlers.
func setUp(w *workload, rec *recorder) (*env, error) {
	e := &env{w: w}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	var err error
	if e.refs, err = computeReferences(w.classes); err != nil {
		return nil, err
	}

	factory := serve.EngineFactory(nil)
	if rec != nil && !w.classes[0].ns.Streamed {
		factory = tracedFactory(rec)
	}

	switch w.front {
	case "":
		if factory == nil {
			factory = serve.NewSolverEngine
		}
		t := &engineTarget{refs: e.refs}
		e.closers = append(e.closers, func() {
			for _, eng := range t.engines {
				eng.Close()
			}
		})
		for _, c := range w.classes {
			eng, err := factory(c.ns)
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", c.name, err)
			}
			t.engines = append(t.engines, eng)
		}
		e.target = t

	case "serve", "fleet":
		replicas := 1
		if w.front == "fleet" {
			replicas = 2
		}
		var urls []string
		for i := 0; i < replicas; i++ {
			opts := serve.Options{Slots: w.slots, EngineFactory: factory}
			if w.classes[0].ns.Streamed {
				if err := os.MkdirAll(buildDir, 0o755); err != nil {
					return nil, err
				}
				if e.spillDir, err = os.MkdirTemp(buildDir, "spill-"); err != nil {
					return nil, err
				}
				if e.spillDir, err = filepath.Abs(e.spillDir); err != nil {
					return nil, err
				}
				dir := e.spillDir
				e.closers = append(e.closers, func() { _ = os.RemoveAll(dir) })
				opts.SpillDir = dir
			}
			srv := serve.NewServer(opts)
			e.servers = append(e.servers, srv)
			e.closers = append(e.closers, srv.Close)
			h := srv.Handler()
			if rec != nil {
				h = traceHTTP(rec, "replica", fmt.Sprintf("replica%d", i), h)
			}
			u, err := e.listen(h)
			if err != nil {
				return nil, err
			}
			urls = append(urls, u)
		}
		front := urls[0]
		if w.front == "fleet" {
			if e.router, err = fleet.NewRouter(fleet.Options{Replicas: urls}); err != nil {
				return nil, err
			}
			e.closers = append(e.closers, e.router.Close)
			h := e.router.Handler()
			if rec != nil {
				h = traceHTTP(rec, "router", "router", h)
			}
			if front, err = e.listen(h); err != nil {
				return nil, err
			}
			if err := waitHealthy(front, replicas); err != nil {
				return nil, err
			}
		}
		t := &httpTarget{refs: e.refs}
		for i := 0; i < w.clients; i++ {
			cl := serveclient.New(front)
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
			cl.HTTP = &http.Client{Transport: tr, Timeout: jobTimeout}
			e.closers = append(e.closers, tr.CloseIdleConnections)
			t.clients = append(t.clients, cl)
		}
		e.target = t
	}

	// Warm-up, untimed: every class once per pass, one client.
	var warm []job
	for p := 0; p < w.warmup; p++ {
		if w.front == "" {
			all := make(job, len(w.classes))
			for i := range all {
				all[i] = i
			}
			warm = append(warm, all)
			continue
		}
		for i := range w.classes {
			warm = append(warm, job{i})
		}
	}
	for _, o := range runLoop(e, warm, 1, 0, len(warm), nil) {
		if !o.ok {
			return nil, fmt.Errorf("warm-up job failed: %s", o.err)
		}
	}
	ok = true
	return e, nil
}

// waitHealthy blocks until the router reports n healthy replicas.
func waitHealthy(front string, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		var fs fleet.FleetStatus
		healthy := 0
		if err := getJSON(front+"/v1/fleet", &fs); err == nil {
			for _, r := range fs.Replicas {
				if r.Healthy {
					healthy++
				}
			}
		}
		if healthy >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router reports %d healthy replicas, want %d", healthy, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
