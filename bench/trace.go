package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"islands/internal/serve"
)

// tracedFactory is the traced run's serve.EngineFactory: the production
// factory plus a span round the compile, and an engine wrapper that spans
// Reset, Step and Checksums.
func tracedFactory(rec *recorder) serve.EngineFactory {
	var n atomic.Int64
	return func(ns serve.NormSpec) (serve.Engine, error) {
		track := fmt.Sprintf("engine%d", n.Add(1))
		key := classKey(ns)
		t0 := rec.now()
		eng, err := serve.NewSolverEngine(ns)
		if err != nil {
			return nil, err
		}
		rec.add(span{Name: "engine.compile", Track: track, Job: -1, Key: key, Parent: -1, Start: t0, End: rec.now()})
		return &tracedEngine{Engine: eng, rec: rec, track: track, key: key}, nil
	}
}

// classKey names a spec's engine class on engine spans, which cannot know
// which job leased them.
func classKey(ns serve.NormSpec) string {
	return fmt.Sprintf("%s/%v/%s", ns.Solver, ns.Domain, ns.StrategyName())
}

type tracedEngine struct {
	serve.Engine
	rec        *recorder
	track, key string
	stepped    bool
}

// record adds the span of one engine call that began at start.
func (e *tracedEngine) record(name string, start time.Duration, first bool) {
	e.rec.add(span{Name: name, Track: e.track, Key: e.key, Job: -1, Parent: -1, Start: start, End: e.rec.now(), First: first})
}

func (e *tracedEngine) Reset() error {
	start := e.rec.now()
	err := e.Engine.Reset()
	e.record("engine.reset", start, false)
	return err
}

func (e *tracedEngine) Step() error {
	start, first := e.rec.now(), !e.stepped
	e.stepped = true
	err := e.Engine.Step()
	e.record("engine.step", start, first)
	return err
}

func (e *tracedEngine) Checksums() serve.Checksums {
	start := e.rec.now()
	ck := e.Engine.Checksums()
	e.record("engine.checksums", start, false)
	return ck
}

// countingWriter counts response bytes for the HTTP spans.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// traceHTTP is the traced run's middleware round Router.Handler() and each
// Server.Handler(): one span per job request, keyed by the job id in the URL
// path (or, for a submit, in the Location header of the answer). layer is
// "router" or "replica"; requests that are not about a job (health probes,
// /metrics) are not spanned.
func traceHTTP(rec *recorder, layer, track string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, isJob := strings.CutPrefix(r.URL.Path, "/v1/jobs")
		if !isJob || strings.Contains(strings.TrimPrefix(id, "/"), "/") {
			h.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		t0 := rec.now()
		h.ServeHTTP(cw, r)
		name := layer + ".status"
		id = strings.TrimPrefix(id, "/")
		if r.Method == http.MethodPost {
			name = layer + ".submit"
			id = strings.TrimPrefix(w.Header().Get("Location"), "/v1/jobs/")
		}
		rec.add(span{Name: name, Track: track, Job: -1, Key: id, Parent: -1, Start: t0, End: rec.now(), Bytes: cw.n})
	})
}

// spanIndex finds the spans of one name that contain a given interval
// without scanning them all: sorted by start, and no span is longer than
// longest, so the scan back from the interval's start is short.
type spanIndex struct {
	spans   []span
	byStart []int
	longest time.Duration
}

func indexSpans(spans []span, name string) *spanIndex {
	x := &spanIndex{spans: spans}
	for i, s := range spans {
		if s.Name == name {
			x.byStart = append(x.byStart, i)
			x.longest = max(x.longest, s.dur())
		}
	}
	sort.Slice(x.byStart, func(a, b int) bool { return spans[x.byStart[a]].Start < spans[x.byStart[b]].Start })
	return x
}

// tightest returns the job of the shortest indexed span that contains s and
// satisfies keep, or -1.
func (x *spanIndex) tightest(s span, keep func(q span) bool) int {
	hi := sort.Search(len(x.byStart), func(i int) bool { return x.spans[x.byStart[i]].Start > s.Start })
	best := -1
	for i := hi - 1; i >= 0; i-- {
		q := x.spans[x.byStart[i]]
		if s.Start-q.Start > x.longest {
			break
		}
		if q.Job < 0 || q.End < s.End || !keep(q) {
			continue
		}
		if best < 0 || q.dur() < x.spans[best].dur() {
			best = x.byStart[i]
		}
	}
	if best < 0 {
		return -1
	}
	return x.spans[best].Job
}

// resolveJobs fills span.Job where the recording layer could not know it,
// from what the client saw (outs) and from containment in time:
//   - a span of the front the client talks to carries the front's job id;
//   - a replica behind the router carries its own job id, resolved through
//     its submit span, which lies inside the router's submit span of the job;
//   - an engine span carries its class, and belongs to the tightest job
//     running that class whose client-side interval contains it.
//
// Engine spans of two concurrent jobs of one class may be swapped; they are
// interchangeable in every aggregate this file feeds.
func resolveJobs(spans []span, outs []outcome, jobs []job, classes []class, front string) {
	byFrontID := map[string]int{}
	for _, o := range outs {
		if o.frontID != "" {
			byFrontID[o.frontID] = o.job
		}
	}
	frontLayer := "replica"
	if front == "fleet" {
		frontLayer = "router"
	}
	for i, s := range spans {
		if s.Job < 0 && strings.HasPrefix(s.Name, frontLayer+".") {
			if j, ok := byFrontID[s.Key]; ok {
				spans[i].Job = j
			}
		}
	}
	if front == "fleet" {
		submits := indexSpans(spans, "router.submit")
		behind := map[string]int{} // track + replica job id -> job
		for _, s := range spans {
			if s.Name == "replica.submit" {
				behind[s.Track+"/"+s.Key] = submits.tightest(s, func(span) bool { return true })
			}
		}
		for i, s := range spans {
			if s.Job < 0 && strings.HasPrefix(s.Name, "replica.") {
				if j, ok := behind[s.Track+"/"+s.Key]; ok {
					spans[i].Job = j
				}
			}
		}
	}
	roots := indexSpans(spans, "job")
	keys := make([]string, len(classes))
	for i, c := range classes {
		keys[i] = classKey(c.ns)
	}
	runs := func(q span, key string) bool {
		for _, ci := range jobs[q.Job%len(jobs)] {
			if keys[ci] == key {
				return true
			}
		}
		return false
	}
	for i, s := range spans {
		if s.Job < 0 && strings.HasPrefix(s.Name, "engine.") {
			spans[i].Job = roots.tightest(s, func(q span) bool { return runs(q, s.Key) })
		}
	}
}
