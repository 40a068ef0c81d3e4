// Package simmach is a flow-level discrete-event simulator for SMP/NUMA
// machines. Work is expressed as per-core sequences of items; each item
// carries concurrent flows (compute on a core, byte streams across memory
// controllers and interconnect links) plus optional fixed latency and
// barrier joins. Active flows share every resource they traverse max–min
// fairly (progressive filling), which captures the contention effects the
// paper measures: a single memory controller saturated by 14 sockets, a
// NUMAlink hub port throttling remote streams, per-stage barriers whose cost
// grows with the hop diameter of the participant set.
//
// Go's runtime cannot pin threads to cores or control NUMA page placement,
// so wall-clock behaviour of the paper's machine is reproduced here as
// simulated time over an explicit resource graph (see DESIGN.md §2).
package simmach

import (
	"fmt"
	"math"
)

// Resource is a capacity-shared entity: a core's arithmetic pipe (flop/s),
// a node's memory controller (bytes/s), or one direction of a link (bytes/s).
type Resource struct {
	ID       int
	Name     string
	Capacity float64 // units per second
}

// Flow is one demand routed over a set of resources it occupies
// simultaneously; its rate is the max–min fair share of its bottleneck.
type Flow struct {
	// Demand is the total units to move (flops or bytes).
	Demand float64
	// Resources traversed; the flow consumes the same rate on each.
	Resources []int
	// MaxRate optionally caps the flow's rate (0 = uncapped). Used for
	// latency-limited remote streams whose throughput is bounded by
	// outstanding-transactions * line / round-trip, independent of link
	// capacity.
	MaxRate float64
}

// Item is one step of a proc's program: an optional fixed delay followed by
// a set of concurrent flows; the item completes when the delay has elapsed
// and every flow has delivered its demand. If Barrier is set, the proc then
// waits at the barrier.
type Item struct {
	Tag     string
	Delay   float64
	Flows   []Flow
	Barrier *Barrier
	// Repeat executes the item the given number of additional times
	// (0 means run once). Barrier items repeat the join each iteration.
	Repeat int
}

// Barrier is a reusable synchronization point for N participants. Each use
// (generation) releases all waiters Cost seconds after the last arrival,
// modeling the propagation of the barrier release over the interconnect.
type Barrier struct {
	id      int
	N       int
	Cost    float64
	waiting []int
	uses    int
}

// Proc is a simulated execution context, typically one hardware core.
type Proc struct {
	ID    int
	Name  string
	items []Item
}

// Add appends items to the proc's program.
func (p *Proc) Add(items ...Item) {
	p.items = append(p.items, items...)
}

// Sim drives a set of procs over a set of resources.
type Sim struct {
	resources []Resource
	procs     []*Proc
	barriers  []*Barrier
	trace     bool
	events    []TraceEvent
}

// New returns an empty simulator.
func New() *Sim { return &Sim{} }

// AddResource registers a capacity-shared resource and returns its id.
func (s *Sim) AddResource(name string, capacity float64) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("simmach: resource %q needs positive capacity", name))
	}
	s.resources = append(s.resources, Resource{ID: len(s.resources), Name: name, Capacity: capacity})
	return len(s.resources) - 1
}

// AddProc registers an execution context and returns it.
func (s *Sim) AddProc(name string) *Proc {
	p := &Proc{ID: len(s.procs), Name: name}
	s.procs = append(s.procs, p)
	return p
}

// NewBarrier creates a barrier for n participants with the given release
// cost per use.
func (s *Sim) NewBarrier(n int, cost float64) *Barrier {
	if n <= 0 {
		panic("simmach: barrier needs at least one participant")
	}
	b := &Barrier{id: len(s.barriers), N: n, Cost: cost}
	s.barriers = append(s.barriers, b)
	return b
}

// Result summarizes a simulation run.
type Result struct {
	// Makespan is the completion time of the last proc.
	Makespan float64
	// ProcEnd[p] is proc p's completion time.
	ProcEnd []float64
	// ResourceUnits[r] is the total demand served by resource r.
	ResourceUnits []float64
}

// procState tracks a proc's progress through its program.
type procState struct {
	proc *Proc
	// next item index and repeat countdown.
	idx        int
	repeatLeft int
	// itemStart is the time the current item began (for tracing).
	itemStart float64
	// phase within the current item.
	delayLeft float64
	flows     []*flowState // nil entries are finished
	liveFlows int
	atBarrier bool
	// releaseAt, when >= 0, is a pending fixed wake-up (barrier release).
	releaseAt float64
	done      bool
	endTime   float64
}

type flowState struct {
	flow      *Flow
	remaining float64
	rate      float64
	frozen    bool
}

const timeEps = 1e-15

// Run executes the simulation to completion and returns the result.
// It is deterministic: ties are broken by proc and flow order.
func (s *Sim) Run() (*Result, error) {
	states := make([]*procState, len(s.procs))
	for i, p := range s.procs {
		st := &procState{proc: p, releaseAt: -1}
		states[i] = st
		s.startItem(st, 0)
	}
	res := &Result{
		ProcEnd:       make([]float64, len(s.procs)),
		ResourceUnits: make([]float64, len(s.resources)),
	}

	now := 0.0
	for iter := 0; ; iter++ {
		if iter > 50_000_000 {
			return nil, fmt.Errorf("simmach: runaway simulation (>5e7 events)")
		}
		// Collect active flows and recompute max–min fair rates.
		var active []*flowState
		for _, st := range states {
			if st.done || st.atBarrier || st.releaseAt >= 0 || st.delayLeft > timeEps {
				continue
			}
			for _, fs := range st.flows {
				if fs != nil {
					active = append(active, fs)
				}
			}
		}
		s.assignRates(active)

		// Next event time: earliest among delay expiries, flow
		// completions, and pending barrier releases.
		next := math.Inf(1)
		for _, st := range states {
			if st.done {
				continue
			}
			if st.releaseAt >= 0 {
				next = math.Min(next, st.releaseAt)
				continue
			}
			if st.atBarrier {
				continue
			}
			if st.delayLeft > timeEps {
				next = math.Min(next, now+st.delayLeft)
				continue
			}
			for _, fs := range st.flows {
				if fs == nil {
					continue
				}
				if fs.rate <= 0 {
					return nil, fmt.Errorf("simmach: flow stalled at rate 0 (item %q)", s.currentTag(st))
				}
				next = math.Min(next, now+fs.remaining/fs.rate)
			}
			if st.liveFlows == 0 && st.delayLeft <= timeEps {
				// Item already complete; handle immediately.
				next = now
			}
		}
		if math.IsInf(next, 1) {
			break // all procs done (or deadlocked barrier — checked below)
		}
		dt := next - now
		if dt < 0 {
			dt = 0
		}

		for _, fs := range active {
			moved := fs.rate * dt
			if moved > fs.remaining {
				moved = fs.remaining
			}
			fs.remaining -= moved
			for _, rid := range fs.flow.Resources {
				res.ResourceUnits[rid] += moved
			}
		}
		now = next

		// Process expiries and completions.
		for _, st := range states {
			if st.done {
				continue
			}
			if st.releaseAt >= 0 {
				if st.releaseAt <= now+timeEps {
					st.releaseAt = -1
					s.advance(st, now, res)
				}
				continue
			}
			if st.atBarrier {
				continue
			}
			if st.delayLeft > timeEps {
				st.delayLeft -= dt
				if st.delayLeft < timeEps {
					st.delayLeft = 0
				}
			}
			if st.delayLeft > timeEps {
				continue
			}
			for fi, fs := range st.flows {
				if fs == nil {
					continue
				}
				// A flow is complete when its residual is negligible —
				// either relative to its demand or, crucially, when the
				// residual transfer time would vanish in float64 next to
				// the current simulation time (otherwise time cannot
				// advance and the simulation livelocks).
				thresh := timeEps * math.Max(1, fs.flow.Demand)
				if fs.rate > 0 {
					thresh = math.Max(thresh, fs.rate*now*1e-12)
				}
				if fs.remaining <= thresh {
					// Credit the residual so unit accounting stays exact.
					for _, rid := range fs.flow.Resources {
						res.ResourceUnits[rid] += fs.remaining
					}
					fs.remaining = 0
					st.flows[fi] = nil
					st.liveFlows--
				}
			}
			if st.liveFlows == 0 {
				s.itemFlowsDone(st, now, states)
			}
		}
	}

	// Deadlock check: any proc still waiting at a barrier.
	for _, st := range states {
		if !st.done {
			return nil, fmt.Errorf("simmach: proc %q deadlocked at item %q (barrier short of participants?)",
				st.proc.Name, s.currentTag(st))
		}
		res.ProcEnd[st.proc.ID] = st.endTime
		if st.endTime > res.Makespan {
			res.Makespan = st.endTime
		}
	}
	return res, nil
}

func (s *Sim) currentTag(st *procState) string {
	if st.idx < len(st.proc.items) {
		return st.proc.items[st.idx].Tag
	}
	return "<end>"
}

// startItem initializes proc state for item idx (or marks the proc done).
func (s *Sim) startItem(st *procState, idx int) {
	st.idx = idx
	if idx >= len(st.proc.items) {
		st.done = true
		return
	}
	it := &st.proc.items[idx]
	if st.repeatLeft == 0 {
		st.repeatLeft = it.Repeat
	}
	st.delayLeft = it.Delay
	st.flows = st.flows[:0]
	st.liveFlows = 0
	for fi := range it.Flows {
		f := &it.Flows[fi]
		if f.Demand <= 0 {
			continue
		}
		st.flows = append(st.flows, &flowState{flow: f, remaining: f.Demand})
		st.liveFlows++
	}
	st.atBarrier = false
}

// itemFlowsDone handles an item whose delay and flows are complete: join the
// barrier or move on.
func (s *Sim) itemFlowsDone(st *procState, now float64, states []*procState) {
	it := &st.proc.items[st.idx]
	if it.Barrier == nil {
		s.advance(st, now, nil)
		return
	}
	b := it.Barrier
	st.atBarrier = true
	b.waiting = append(b.waiting, st.proc.ID)
	if len(b.waiting) < b.N {
		return
	}
	// Release all waiters after the barrier cost.
	release := now + b.Cost
	for _, pid := range b.waiting {
		ws := states[pid]
		ws.atBarrier = false
		ws.releaseAt = release
	}
	b.waiting = b.waiting[:0]
	b.uses++
}

// advance moves a proc past its current item, honouring Repeat.
func (s *Sim) advance(st *procState, now float64, res *Result) {
	if s.trace && st.idx < len(st.proc.items) {
		s.events = append(s.events, TraceEvent{
			Proc: st.proc.ID, Tag: st.proc.items[st.idx].Tag,
			Start: st.itemStart, End: now,
		})
	}
	st.itemStart = now
	if st.repeatLeft > 0 {
		st.repeatLeft--
		saved := st.repeatLeft
		s.startItem(st, st.idx)
		st.repeatLeft = saved
		return
	}
	s.startItem(st, st.idx+1)
	if st.done {
		st.endTime = now
	}
}

// assignRates computes max–min fair rates for the active flows via
// progressive filling, honouring per-flow MaxRate caps.
func (s *Sim) assignRates(active []*flowState) {
	if len(active) == 0 {
		return
	}
	remaining := make([]float64, len(s.resources))
	for i, r := range s.resources {
		remaining[i] = r.Capacity
	}
	users := make([]int, len(s.resources))
	unfrozen := 0
	for _, fs := range active {
		fs.rate = 0
		fs.frozen = false
		unfrozen++
		for _, rid := range fs.flow.Resources {
			users[rid]++
		}
	}
	level := 0.0
	for unfrozen > 0 {
		// Smallest additional fair increment over any constraint.
		inc := math.Inf(1)
		for rid := range s.resources {
			if users[rid] > 0 {
				inc = math.Min(inc, remaining[rid]/float64(users[rid]))
			}
		}
		for _, fs := range active {
			if !fs.frozen && fs.flow.MaxRate > 0 {
				inc = math.Min(inc, fs.flow.MaxRate-level)
			}
		}
		if math.IsInf(inc, 1) {
			// No constraints at all: flows limited only by demand per
			// event step; give them an arbitrary large rate.
			for _, fs := range active {
				if !fs.frozen {
					fs.rate = math.MaxFloat64 / 4
					fs.frozen = true
					unfrozen--
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}
		level += inc
		for _, fs := range active {
			if !fs.frozen {
				fs.rate += inc
			}
		}
		for rid := range s.resources {
			if users[rid] > 0 {
				remaining[rid] -= inc * float64(users[rid])
			}
		}
		// Freeze flows on saturated constraints.
		for _, fs := range active {
			if fs.frozen {
				continue
			}
			freeze := false
			if fs.flow.MaxRate > 0 && fs.rate >= fs.flow.MaxRate-timeEps {
				freeze = true
			}
			if !freeze {
				for _, rid := range fs.flow.Resources {
					if remaining[rid] <= timeEps*s.resources[rid].Capacity {
						freeze = true
						break
					}
				}
			}
			if freeze {
				fs.frozen = true
				unfrozen--
				for _, rid := range fs.flow.Resources {
					users[rid]--
				}
			}
		}
	}
}

// Rates exposes the fair-share computation for testing: given flows, it
// returns their max–min rates in input order.
func (s *Sim) Rates(flows []Flow) []float64 {
	states := make([]*flowState, len(flows))
	for i := range flows {
		states[i] = &flowState{flow: &flows[i], remaining: flows[i].Demand}
	}
	s.assignRates(states)
	out := make([]float64, len(flows))
	for i, fs := range states {
		out[i] = fs.rate
	}
	return out
}
