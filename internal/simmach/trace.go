package simmach

import (
	"fmt"
	"sort"
	"strings"
)

// TraceEvent records one executed item: which proc ran it, its tag, and the
// simulated interval it occupied (including any barrier wait at its end).
type TraceEvent struct {
	Proc  int
	Tag   string
	Start float64
	End   float64
}

// EnableTrace turns on per-item event recording for the next Run. Tracing
// is off by default; enabling it makes Run allocate one event per executed
// item.
func (s *Sim) EnableTrace() { s.trace = true }

// Trace returns the events recorded by the last Run (nil without
// EnableTrace). Events are appended in completion order.
func (s *Sim) Trace() []TraceEvent { return s.events }

// TagTimes aggregates traced busy time per item tag, summed over procs.
func (s *Sim) TagTimes() map[string]float64 {
	out := make(map[string]float64)
	for _, e := range s.events {
		out[e.Tag] += e.End - e.Start
	}
	return out
}

// Timeline renders the trace as a text Gantt chart: one row per proc, time
// bucketed into width columns, each busy bucket marked with the first letter
// of the dominating item's tag ('.' = idle). Useful for eyeballing where a
// strategy's time goes (fills, stages, barriers).
func (s *Sim) Timeline(res *Result, width int) string {
	if width <= 0 || len(s.events) == 0 || res.Makespan <= 0 {
		return ""
	}
	type cell struct {
		busy float64
		mark byte
	}
	rows := make([][]cell, len(s.procs))
	for i := range rows {
		rows[i] = make([]cell, width)
	}
	dt := res.Makespan / float64(width)
	for _, e := range s.events {
		mark := byte('#')
		if e.Tag != "" {
			mark = e.Tag[0]
		}
		b0 := int(e.Start / dt)
		b1 := int(e.End / dt)
		for b := b0; b <= b1 && b < width; b++ {
			lo := maxf64(e.Start, float64(b)*dt)
			hi := minf64(e.End, float64(b+1)*dt)
			if hi <= lo {
				continue
			}
			c := &rows[e.Proc][b]
			if hi-lo > c.busy {
				c.busy = hi - lo
				c.mark = mark
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "timeline (%.3gs, %d buckets):\n", res.Makespan, width)
	for p, row := range rows {
		fmt.Fprintf(&sb, "%-10s |", s.procs[p].Name)
		for _, c := range row {
			if c.busy > 0 {
				sb.WriteByte(c.mark)
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteString("|\n")
	}
	// Per-tag summary, largest first; equal times in tag order, so the text
	// does not depend on map iteration.
	type tt struct {
		tag string
		t   float64
	}
	var tags []tt
	for tag, t := range s.TagTimes() {
		tags = append(tags, tt{tag, t})
	}
	sort.Slice(tags, func(i, j int) bool {
		if tags[i].t != tags[j].t {
			return tags[i].t > tags[j].t
		}
		return tags[i].tag < tags[j].tag
	})
	for _, e := range tags {
		fmt.Fprintf(&sb, "  %-20s %10.4gs busy\n", e.tag, e.t)
	}
	return sb.String()
}

func maxf64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf64(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
