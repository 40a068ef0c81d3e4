package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded only by
// the benchmark's own files — around the calls into each layer — and only in
// the traced run.
type span struct {
	Name string
	// Track is where it was recorded: "client0", "router", "replica1",
	// "engine3". One track never holds two overlapping spans of one rank.
	Track string
	// Job is the index of the client job the span belongs to (-1 = none:
	// set-up work). Layers that cannot know it record Key instead — the job
	// id as that layer sees it, or the class name — and resolveJobs fills Job.
	Job int
	Key string
	// Parent is the index of the span that caused this one (-1 = root).
	Parent     int
	Start, End time.Duration
	// Bytes is the response size of an HTTP span; First marks an engine's
	// first Step after its compile.
	Bytes int
	First bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// add appends a span and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes a span that was added open (a parent recorded before its
// children so they can name it).
func (r *recorder) end(i int) {
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// rank orders the layers a job passes through, outermost first. A span's
// parent is always of a lower rank.
func rank(name string) int {
	switch name {
	case "job":
		return 0
	case "client.submit", "client.wait":
		return 1
	case "router.submit", "router.status":
		return 2
	case "replica.submit", "replica.status":
		return 3
	default: // engine.*
		return 4
	}
}

// linkSpans sets Parent of every span that has a job and no parent yet: the
// tightest span of the same job and a lower rank that contains it, the
// deepest such rank winning; the job's root when nothing contains it (work a
// server did between two client calls).
func linkSpans(spans []span) {
	byJob := map[int][]int{}
	for i, s := range spans {
		if s.Job >= 0 {
			byJob[s.Job] = append(byJob[s.Job], i)
		}
	}
	for _, idx := range byJob {
		for _, i := range idx {
			s := &spans[i]
			if s.Parent >= 0 || s.Name == "job" {
				continue
			}
			best, root := -1, -1
			for _, p := range idx {
				q := spans[p]
				if q.Name == "job" {
					root = p
				}
				if p == i || rank(q.Name) >= rank(s.Name) || q.Start > s.Start || q.End < s.End {
					continue
				}
				if best < 0 || rank(q.Name) > rank(spans[best].Name) ||
					(rank(q.Name) == rank(spans[best].Name) && q.dur() < spans[best].dur()) {
					best = p
				}
			}
			if best < 0 {
				best = root
			}
			s.Parent = best
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its interval
// its child spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, upto := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, upto), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// percentile returns the p-quantile (0..1) of vs by the nearest-rank rule,
// and how many samples lie beyond it. It sorts a copy.
func percentile(vs []float64, p float64) (v float64, beyond int) {
	if len(vs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(len(s)-1, i))
	return s[i], len(s) - 1 - i
}

func median(vs []float64) float64 {
	v, _ := percentile(vs, 0.5)
	return v
}

// writeChromeTrace writes the spans as Chrome trace-event JSON ("X" complete
// events, one thread per track), loadable in Perfetto or chrome://tracing
// like the file exec.WriteTrace produces.
func writeChromeTrace(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for i, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Track}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "job": s.Job, "parent": s.Parent, "key": s.Key},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
