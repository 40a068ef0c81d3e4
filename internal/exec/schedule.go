package exec

import (
	"fmt"
	"strings"
	"sync"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/sched"
	"islands/internal/stencil"
)

// This file implements the compiled-schedule executor: at NewRunner time the
// full (island, block, stage, worker) -> region decomposition of one time
// step — including the interior/border split that split kernels would
// otherwise recompute on every invocation — is flattened into one work-item
// list per worker. The steady-state step loop then performs no region
// arithmetic, no closure construction and no allocations: every worker walks
// its precompiled items, and per-stage joins are reusable sense-reversing
// barriers (sched.Barrier) instead of a channel dispatch+join per stage. This
// is the schedule-once/execute-many discipline of time-skewed stencil
// frameworks, applied to the paper's strategies — which differ only in the
// plan's sweeper list (exec.go); one loop nest
// (compileSweeps) and one epilogue (compileFeedback) compile them all.

type itemKind uint8

const (
	// kernelItem invokes a stage kernel over a precomputed region. Regions
	// of split-kernel stages are pre-cut into interior (fast path, flat
	// indexing) and border (slow path, boundary conditions) pieces.
	kernelItem itemKind = iota
	// copyItem copies a region between two fields: a whole-part publish
	// into the shared feedback grid (copy mode), or a halo-strip pull from
	// a neighbor environment's freshly computed buffer (swap+halo mode).
	copyItem
	// barrierItem waits at a phase barrier — the per-stage team join or
	// the end-of-compute global join.
	barrierItem
	// swapItem swaps the data buffers of two fields in place
	// (grid.SwapData) — the island-local feedback/output exchange between
	// the inner steps of a temporal block. Island-level schedules fuse it
	// into a single team-barrier crossing (every worker arrives, the last
	// arriver swaps before the release publishes it: Barrier.WaitDo);
	// core-level sub-islands swap their own private pair with no
	// synchronization (bar == nil).
	swapItem
)

// schedItem is one precompiled unit of work in a worker's step program.
type schedItem struct {
	kind itemKind
	// phase indexes Schedule.phases: the profiling phase this item is
	// accounted to. Kernel items carry their fused group's phase; barrier
	// items carry the phase they seal (the wait at a barrier measures the
	// imbalance of the work that precedes it).
	phase int32
	kern  stencil.Kernel
	env   *stencil.Env
	reg   grid.Region
	dst   *grid.Field
	src   *grid.Field
	bar   *sched.Barrier
	// do is the precompiled serial section of a fused swap-barrier item
	// (kind == swapItem with bar != nil): the last arriver runs it inside
	// the crossing. Compiled once so the steady-state walk stays
	// allocation-free.
	do func()
}

// phaseInfo labels one profiling phase of a compiled schedule.
type phaseInfo struct {
	// label names the phase: the fused group's member stages joined with
	// "+" (inner steps of a temporal block before the final one carry an
	// "@-d" suffix, d steps before the global join), or a synthetic name
	// for the non-compute phases
	// ("global-join", "halo-exchange", "publish", "inner-swap").
	label string
	// group is the fused-group index behind a compute phase, -1 for the
	// synthetic phases.
	group int
}

// Schedule is a compiled one-step execution program: for every worker of
// every team, the ordered work items of one time step. It is built once per
// Runner and reused for every step; the model backend prices the same plan
// geometry (parts, blocks, spans) the compiler walks.
type Schedule struct {
	// items[t][w] is the step program of worker w of team t. With temporal
	// blocking (ksteps > 1) one walk of items advances ksteps time steps —
	// a full k-block between global joins.
	items [][][]schedItem
	// remainder[t][w] is the trailing sub-block program when the step
	// count is not a multiple of ksteps (Steps mod ksteps inner steps,
	// reusing the tail of the same trapezoid geometry, the same barriers
	// and the same phase ids). Nil when no remainder is needed.
	remainder [][][]schedItem
	// ksteps is the temporal-blocking factor the schedule was compiled
	// with (1 = one step per walk, today's schedules); kstepReason records
	// why a requested Config.KSteps > 1 fell back to 1; remSteps is the
	// remainder program's inner-step count (0 when remainder is nil).
	ksteps      int
	kstepReason string
	remSteps    int
	// barriers lists every barrier in the schedule, for Abort on failure.
	// The remainder program shares them, so one poisoning aborts both.
	barriers []*sched.Barrier
	// mode records how the schedule publishes feedback between steps:
	// a buffer swap on the single shared environment (Original, Plus31D),
	// whole-part publish copies into the shared feedback grid, or the
	// island strategies' per-environment buffer swap plus halo-strip
	// exchange (see halo.go).
	mode FeedbackMode
	// haloStrips / haloBytes total the swap+halo exchange per step
	// (zero in the other modes).
	haloStrips int
	haloBytes  int64
	// fallbackReason records, in copy mode, why the halo-strip exchange
	// was not compiled (a part narrower than the step halo, or a halo wider
	// than the domain) — the loud half of the fallback rule.
	fallbackReason string
	// wrapReason records why periodic wrap bands were skipped for some
	// dimension (stage halo wider than the domain); empty when the bands
	// compiled (or were not needed). windowReason records why a requested
	// Config.Keep window was not honoured.
	wrapReason   string
	windowReason string
	// stages and groups record the program's stage count and the number of
	// fused phase groups the schedule compiles them into (equal when
	// fusion is disabled).
	stages, groups int
	// phases lists the profiling phases of the schedule in first-emission
	// order; schedItem.phase indexes this slice. Compute phases aggregate
	// one fused group across all blocks and teams, so profiled totals line
	// up with ScheduleStats.PhaseGroups.
	phases []phaseInfo

	failMu  sync.Mutex
	failed  bool
	failure any
}

// PhaseLabels returns the schedule's profiling phase labels in order: the
// fused groups (member stages joined with "+") followed by the synthetic
// phases of the island strategies ("global-join", then "halo-exchange" or
// "publish" depending on the feedback mode).
func (s *Schedule) PhaseLabels() []string {
	out := make([]string, len(s.phases))
	for i, p := range s.phases {
		out[i] = p.label
	}
	return out
}

// Feedback reports how the compiled schedule publishes the step output into
// the feedback input between steps.
func (s *Schedule) Feedback() FeedbackMode { return s.mode }

// SwapFeedback reports whether the compiled schedule publishes feedback by
// a single shared-environment buffer swap (true for Original and Plus31D).
func (s *Schedule) SwapFeedback() bool { return s.mode == FeedbackSwap }

// FallbackReason returns, for a copy-mode schedule of an island strategy,
// why the halo-strip exchange was not compiled ("" otherwise).
func (s *Schedule) FallbackReason() string { return s.fallbackReason }

// KSteps returns the temporal-blocking factor the schedule executes: the
// number of full time steps one walk of the compiled k-block advances
// between global joins (1 = no temporal blocking).
func (s *Schedule) KSteps() int { return s.ksteps }

// KStepFallbackReason returns why a requested Config.KSteps > 1 fell back to
// step-at-a-time execution ("" when temporal blocking was not requested or
// compiled as requested).
func (s *Schedule) KStepFallbackReason() string { return s.kstepReason }

// fail records the first worker failure and poisons every barrier so the
// remaining workers unwind instead of deadlocking at the next phase.
func (s *Schedule) fail(p any) {
	s.failMu.Lock()
	if s.failed {
		s.failMu.Unlock()
		return
	}
	s.failed = true
	s.failure = p
	s.failMu.Unlock()
	for _, b := range s.barriers {
		b.Abort()
	}
}

// firstFailure returns the first recorded worker panic value, or nil.
func (s *Schedule) firstFailure() any {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failure
}

// run executes one worker's step program. It performs no allocations.
func runItems(items []schedItem) {
	for i := range items {
		it := &items[i]
		switch it.kind {
		case kernelItem:
			it.kern(it.env, it.reg)
		case copyItem:
			grid.CopyRegion(it.dst, it.src, it.reg)
		case barrierItem:
			it.bar.Wait()
		case swapItem:
			if it.bar != nil {
				it.bar.WaitDo(it.do)
			} else {
				grid.SwapData(it.dst, it.src)
			}
		}
	}
}

// scheduleCompiler accumulates per-worker item lists while walking a plan's
// sweeper list.
type scheduleCompiler struct {
	p    *plan
	prog *stencil.KernelProgram
	// envs[e] is sweeper e's environment (Runner.haloEnvs).
	envs []*stencil.Env
	out  *grid.Field
	// exts[s] is stage s's combined input extent, the interior-split
	// boundary width (identical to what splitKernel uses at run time).
	exts []stencil.Extent
	// groups holds the executable form of the plan's fused groups; the
	// compiler emits one phase (one sweep, one barrier) per group instead
	// of one per stage.
	groups []stencil.GroupExec
	sch    *Schedule
	// binds caches border-bound environment clones: pieces with the same
	// pinned coordinates share one clone across stages and blocks.
	binds map[bindKey]*stencil.Env
	// curPhase is the profiling phase stamped onto emitted items; the
	// compile loop sets it to a group's phase before emitting the group's
	// units, and leaves it pointing at the just-finished phase when
	// emitting the barrier that seals it.
	curPhase int32
	// phaseByGroup maps a fused group and its inner-step distance d (from
	// the temporal block's final step; always 0 without temporal blocking)
	// to its phase id, so a group swept once per block and sweeper still
	// aggregates into a single phase per inner step. Keying by d rather
	// than by inner-step index lets the remainder program — whose r inner
	// steps are the tail of the k-block's geometry — share the k-block's
	// phase ids.
	phaseByGroup map[groupKey]int32
	// phaseByLabel caches the synthetic phases ("global-join",
	// "halo-exchange", "publish", "inner-swap") so the remainder program
	// reuses the k-block's ids.
	phaseByLabel map[string]int32
	// tbars / gbar cache the per-team and global barriers so the remainder
	// program waits at the same objects as the k-block (one Abort poisons
	// both).
	tbars []*sched.Barrier
	gbar  *sched.Barrier
	// rem redirects emission into the schedule's remainder program.
	rem bool
	// feedback names the step input the inner-step swaps publish into.
	feedback string
	// halo is the swap+halo exchange geometry, nil when the island
	// strategies must publish by whole-part copies; haloReason says why.
	halo       *haloGeom
	haloReason string
}

// groupKey identifies a compute phase: a fused group at an inner-step
// distance from the temporal block's final step.
type groupKey struct{ gi, d int }

// bindKey identifies a border binding of an environment.
type bindKey struct {
	env    *stencil.Env
	pinned [3]bool
	pin    [3]int
}

func newScheduleCompiler(p *plan, prog *stencil.KernelProgram, envs []*stencil.Env, out *grid.Field) (*scheduleCompiler, error) {
	groups, err := p.fuse.CompileGroups(prog)
	if err != nil {
		return nil, err
	}
	c := &scheduleCompiler{p: p, prog: prog, envs: envs, out: out, groups: groups,
		sch: &Schedule{stages: len(prog.Stages), groups: len(groups),
			ksteps: p.ksteps, kstepReason: p.kstepReason},
		binds:        make(map[bindKey]*stencil.Env),
		phaseByGroup: make(map[groupKey]int32),
		phaseByLabel: make(map[string]int32),
		tbars:        make([]*sched.Barrier, p.cfg.Machine.NumNodes())}
	c.exts = make([]stencil.Extent, len(prog.Stages))
	for s := range prog.Stages {
		c.exts[s] = stencil.InputsExtent(prog.Stages[s].Inputs)
	}
	c.sch.items = c.newProgram()
	return c, nil
}

// newProgram allocates one empty item list per worker of every team.
func (c *scheduleCompiler) newProgram() [][][]schedItem {
	prog := make([][][]schedItem, c.p.cfg.Machine.NumNodes())
	for t, node := range c.p.cfg.Machine.Nodes {
		prog[t] = make([][]schedItem, node.Cores)
	}
	return prog
}

// addKernel appends stage s over region r to worker wk, pre-splitting
// split-kernel stages at plan time (addSplit).
func (c *scheduleCompiler) addKernel(wk workerID, s int, env *stencil.Env, r grid.Region) {
	if r.Empty() {
		return
	}
	fast, _, ok := c.prog.SplitPaths(s)
	if !ok {
		c.push(wk, schedItem{kind: kernelItem, kern: c.prog.Kernels[s], env: env, reg: r})
		return
	}
	c.addSplit(wk, fast, c.prog.RowCapable(s), c.exts[s], env, r)
}

// addSplit appends fast-path kernel kern, reading within ext, over region r
// to worker wk. The interior runs on the plain environment; the boundary
// shell is decomposed into pinned pieces (stencil.BorderPieces), each of
// which also runs the fast path — on an environment clone bound to the piece,
// whose resolved steps fold the boundary condition into the flat strides.
// Every cell thus reads exactly the elements the generic AtP path would, so
// results stay bit-identical to the combined kernel while the per-cell
// boundary checks disappear from the steady-state loop entirely. A
// row-capable kernel computes the k faces inside its rows, so its region is
// cut in i and j only (stencil.RowPieces): no item of it is a column of
// one-cell rows, a cache line apart each.
func (c *scheduleCompiler) addSplit(wk workerID, kern stencil.Kernel, rows bool, ext stencil.Extent, env *stencil.Env, r grid.Region) {
	split := stencil.BorderPieces
	if rows {
		split = stencil.RowPieces
	}
	interior, pieces := split(r, ext, c.p.domain)
	if !interior.Empty() {
		c.push(wk, schedItem{kind: kernelItem, kern: kern, env: env, reg: interior})
	}
	for _, pc := range pieces {
		c.push(wk, schedItem{kind: kernelItem, kern: kern, env: c.bindEnv(env, pc), reg: pc.Region})
	}
}

// phaseUnit is one work parcel within a fused phase: either the group's
// fused fast sweep over the members' common region, or a single member
// stage over a remainder or fallback region. All units of a phase are
// mutually independent (the planner guarantees no member reads another), so
// they execute in any order between the phase's barriers.
type phaseUnit struct {
	fused bool
	idx   int // group index when fused, stage index otherwise
	reg   grid.Region
}

// groupUnits decomposes one fused group's work into phase units, given the
// per-stage spans (the same regions the unfused schedule would sweep).
// The intersection of the split-path members' spans runs the group kernel —
// every member in one sweep, sharing the input streams — and each member's
// leftover strips (the wavefront trapezoids differ per stage) run that
// member's own fast path. Every member thus computes exactly the cells of its
// unfused span, keeping the schedule bit-identical to per-stage execution.
func (c *scheduleCompiler) groupUnits(gi int, span func(s int) grid.Region) []phaseUnit {
	ge := &c.groups[gi]
	var units []phaseUnit
	add := func(u phaseUnit) {
		if !u.reg.Empty() {
			units = append(units, u)
		}
	}
	perMember := func() {
		for _, s := range ge.FastMembers {
			add(phaseUnit{idx: s, reg: span(s)})
		}
	}
	if ge.Fast != nil {
		common := span(ge.FastMembers[0])
		for _, s := range ge.FastMembers[1:] {
			common = common.Intersect(span(s))
		}
		if !common.Empty() {
			add(phaseUnit{fused: true, idx: gi, reg: common})
			for _, s := range ge.FastMembers {
				for _, rem := range stencil.Subtract(span(s), common) {
					add(phaseUnit{idx: s, reg: rem})
				}
			}
		} else {
			perMember()
		}
	} else {
		perMember()
	}
	for _, s := range ge.Generic {
		add(phaseUnit{idx: s, reg: span(s)})
	}
	return units
}

// phaseUnits enumerates the work of fused group gi in block b of sweeper sw
// at inner-step distance d: the group's units over the sweeper's spans, plus
// the periodic wrap-band sweeps (wrap.go) of the member stages — first-block
// boxes at b == 0, forward-image boxes at the block holding the stage's top
// plane, and the block's own j/k-image boxes. Band units are per-stage (never fused) and disjoint from
// every same-phase write, so they ride in the group's phase like any other
// unit. bands is stageWrapBands(sw, d), computed once per inner step.
func (c *scheduleCompiler) phaseUnits(sw *sweeper, bands []*wrapBands, d, b, gi int) []phaseUnit {
	units := c.groupUnits(gi, func(s int) grid.Region { return c.p.span(sw, d, s, b) })
	if bands == nil {
		return units
	}
	for _, s := range c.p.fuse.Groups[gi].Stages {
		w := bands[s]
		if w == nil {
			continue
		}
		add := func(boxes []grid.Region) {
			for _, r := range boxes {
				units = append(units, phaseUnit{idx: s, reg: r})
			}
		}
		if b == 0 {
			add(w.first)
		}
		if b == w.top {
			add(w.fwd)
		}
		add(w.perBlock[b])
	}
	return units
}

// addUnit appends one phase unit over region r to worker wk. Fused units get
// addKernel's interior/border treatment with the group's merged extent, so
// every member stays bit-identical to its per-stage execution.
func (c *scheduleCompiler) addUnit(wk workerID, u phaseUnit, env *stencil.Env, r grid.Region) {
	if !u.fused {
		c.addKernel(wk, u.idx, env, r)
		return
	}
	if r.Empty() {
		return
	}
	ge := &c.groups[u.idx]
	c.addSplit(wk, ge.Fast, ge.Rows, c.p.fuse.Groups[u.idx].Ext, env, r)
}

// bindEnv returns env bound to piece pc, reusing clones across pieces with
// identical pinned coordinates (common across stages and blocks).
func (c *scheduleCompiler) bindEnv(env *stencil.Env, pc stencil.BorderPiece) *stencil.Env {
	k := bindKey{env: env, pinned: pc.Pinned, pin: pc.Pin}
	if b, ok := c.binds[k]; ok {
		return b
	}
	b := env.BindPiece(pc)
	c.binds[k] = b
	return b
}

func (c *scheduleCompiler) push(wk workerID, it schedItem) {
	it.phase = c.curPhase
	prog := c.sch.items
	if c.rem {
		prog = c.sch.remainder
	}
	prog[wk.team][wk.worker] = append(prog[wk.team][wk.worker], it)
}

// newPhase registers a profiling phase and returns its id.
func (c *scheduleCompiler) newPhase(label string, group int) int32 {
	id := int32(len(c.sch.phases))
	c.sch.phases = append(c.sch.phases, phaseInfo{label: label, group: group})
	return id
}

// syntheticPhase returns (creating on first use) the phase of a synthetic
// (non-compute) label, so the remainder program shares the k-block's ids.
func (c *scheduleCompiler) syntheticPhase(label string) int32 {
	if id, ok := c.phaseByLabel[label]; ok {
		return id
	}
	id := c.newPhase(label, -1)
	c.phaseByLabel[label] = id
	return id
}

// groupPhase returns (creating on first use) the phase of fused group gi at
// inner-step distance d, labeled with the member stage names joined by "+" —
// the labels DescribeSchedule uses — plus an "@-d"
// suffix for the temporal-block inner steps before the final one (d steps
// before the global join), so imbalance tables stay meaningful per inner
// step.
func (c *scheduleCompiler) groupPhase(gi, d int) int32 {
	key := groupKey{gi, d}
	if id, ok := c.phaseByGroup[key]; ok {
		return id
	}
	var names []string
	for _, s := range c.p.fuse.Groups[gi].Stages {
		names = append(names, c.prog.Stages[s].Name)
	}
	label := strings.Join(names, "+")
	if d > 0 {
		label = fmt.Sprintf("%s@-%d", label, d)
	}
	id := c.newPhase(label, gi)
	c.phaseByGroup[key] = id
	return id
}

// newBarrier creates and registers a barrier of n participants.
func (c *scheduleCompiler) newBarrier(n int) *sched.Barrier {
	b := sched.NewBarrier(n)
	c.sch.barriers = append(c.sch.barriers, b)
	return b
}

// globalBarrier returns (creating on first use) the machine-wide barrier.
func (c *scheduleCompiler) globalBarrier() *sched.Barrier {
	if c.gbar == nil {
		c.gbar = c.newBarrier(c.p.cfg.Machine.TotalCores())
	}
	return c.gbar
}

// joinBarrier returns the barrier sweeper sw's workers meet at between
// phases (creating it on first use; the remainder program waits at the same
// objects as the k-block), nil for a sweeper with nothing to join.
func (c *scheduleCompiler) joinBarrier(sw *sweeper) *sched.Barrier {
	switch sw.join {
	case joinGlobal:
		return c.globalBarrier()
	case joinTeam:
		t := sw.workers[0].team
		if c.tbars[t] == nil {
			c.tbars[t] = c.newBarrier(len(sw.workers))
		}
		return c.tbars[t]
	}
	return nil
}

// addBarrier appends one wait at bar to every worker of sweeper sw.
func (c *scheduleCompiler) addBarrier(sw *sweeper, bar *sched.Barrier) {
	for _, wk := range sw.workers {
		c.push(wk, schedItem{kind: barrierItem, bar: bar})
	}
}

// addCopy appends the copy of region reg from src into dst, cut along dim
// into one chunk per worker of sweeper sw.
func (c *scheduleCompiler) addCopy(sw *sweeper, dst, src *grid.Field, reg grid.Region, dim int) {
	chunks := decomp.SplitDim(reg, dim, len(sw.workers))
	for i, wk := range sw.workers {
		if !chunks[i].Empty() {
			c.push(wk, schedItem{kind: copyItem, dst: dst, src: src, reg: chunks[i]})
		}
	}
}

// compileSchedule builds the compiled one-step program of a plan: envs[e] is
// the environment of plan sweeper e (Runner.haloEnvs). Work items and
// barriers are emitted per fused group — one interior/border split, one
// phase barrier, one set of halo regions per group — so stage fusion cuts
// MPDATA's per-block phases 17 -> 7 (back to 17 with Config.DisableFusion).
func compileSchedule(p *plan, prog *stencil.KernelProgram, envs []*stencil.Env, out *grid.Field,
	feedback string, halo *haloGeom, haloReason string) (*Schedule, error) {
	c, err := newScheduleCompiler(p, prog, envs, out)
	if err != nil {
		return nil, err
	}
	c.halo, c.haloReason = halo, haloReason
	c.feedback = feedback
	c.compileSweeps(p.ksteps)
	c.compileFeedback()
	c.sch.wrapReason, c.sch.windowReason = p.wrapReason, p.windowReason
	if rem := p.cfg.Steps % p.ksteps; p.ksteps > 1 && rem > 0 {
		// The trailing sub-block runs the last rem inner steps of the same
		// trapezoid geometry (distances rem-1 .. 0), waiting at the same
		// barriers and accounted to the same phase ids as the k-block.
		c.rem = true
		c.sch.remainder = c.newProgram()
		c.compileSweeps(rem)
		c.compileFeedback()
		c.sch.remSteps = rem
	}
	return c.sch, nil
}

// compileSweeps is the one compute loop of every strategy: each sweeper walks
// its island's blocks and fused groups, every non-empty group's units cut
// into one chunk per worker along the sweeper's dimension, consecutive
// groups meeting at the sweeper's join barrier — machine-wide for the shared
// environment of Original and Plus31D, the team's own for an island, none
// for a core-level sub-island, which sweeps its private j-trapezoids with no
// synchronization at all. With temporal blocking (kk > 1) a sweeper runs kk
// full step bodies back to back — the inner step at distance d from the
// block's final step sweeping the d-widened trapezoids of plan.spansK[d] —
// separated only by a swap of its private feedback/output buffers; the global
// join, the halo-strip exchange and the driver swap (compileFeedback) then
// happen once per block instead of once per step.
func (c *scheduleCompiler) compileSweeps(kk int) {
	for e := range c.p.sweepers {
		sw, env := &c.p.sweepers[e], c.envs[e]
		bar := c.joinBarrier(sw)
		first := true
		for j := 0; j < kk; j++ {
			d := kk - 1 - j
			bands := c.p.stageWrapBands(sw, d)
			if j > 0 {
				// Between inner steps: a single fused crossing — every
				// worker arrives at the join barrier (the wait measures
				// the previous group's imbalance), the last arriver swaps
				// the sweeper's private feedback/output buffers, and the
				// release publishes the swap into the next step's sweeps.
				// A lone worker just swaps.
				c.curPhase = c.syntheticPhase("inner-swap")
				fb, out := env.Field(c.feedback), env.Field(c.prog.Output)
				it := schedItem{kind: swapItem, bar: bar, dst: fb, src: out}
				if bar != nil {
					it.do = func() { grid.SwapData(fb, out) }
				}
				for _, wk := range sw.workers {
					c.push(wk, it)
				}
				first = true
			}
			for b := range c.p.blocks[sw.island] {
				for gi := range c.groups {
					units := c.phaseUnits(sw, bands, d, b, gi)
					if len(units) == 0 {
						continue
					}
					if !first && bar != nil {
						// curPhase still names the previous group: the wait
						// here measures that group's straggler time.
						c.addBarrier(sw, bar)
					}
					first = false
					c.curPhase = c.groupPhase(gi, d)
					for _, u := range units {
						chunks := decomp.SplitDim(u.reg, sw.dim, len(sw.workers))
						for i, wk := range sw.workers {
							c.addUnit(wk, u, env, chunks[i])
						}
					}
				}
			}
		}
	}
}

// compileFeedback is the one epilogue: how the walk's output becomes the next
// walk's feedback input. The shared environment needs nothing compiled — the
// driver swaps its output buffer in after the step join (replacing a
// full-grid copy sweep). Private environments read each other's feedback
// halos, so none may publish before all have finished computing: a single
// machine-wide join, which gets its own phase — its wait is the inter-island
// imbalance (the paper's phase-5 synchronization), not any single group's.
// Then, in swap+halo mode, every sweeper's workers pull only the
// neighbor-facing strips of its step halo from the owners' freshly computed
// output buffers into its own output field (disjoint from every kernel write
// and every other strip), each strip cut along its longest dimension, and
// the driver swaps each environment's feedback/output buffers; on fallback
// they copy the sweeper's whole owned region into the shared feedback grid.
func (c *scheduleCompiler) compileFeedback() {
	if c.p.sharedEnv() {
		c.sch.mode = FeedbackSwap
		return
	}
	c.curPhase = c.syntheticPhase("global-join")
	for e := range c.p.sweepers {
		c.addBarrier(&c.p.sweepers[e], c.globalBarrier())
	}
	if c.halo == nil {
		c.sch.mode = FeedbackCopy
		c.sch.fallbackReason = c.haloReason
		c.curPhase = c.syntheticPhase("publish")
		for e := range c.p.sweepers {
			sw := &c.p.sweepers[e]
			c.addCopy(sw, c.out, c.envs[e].Field(c.prog.Output), sw.owned, sw.dim)
		}
		return
	}
	c.sch.mode = FeedbackSwapHalo
	c.sch.haloStrips = c.halo.stripCount
	c.sch.haloBytes = c.halo.stripBytes
	c.curPhase = c.syntheticPhase("halo-exchange")
	for e := range c.p.sweepers {
		dst := c.envs[e].Field(c.prog.Output)
		for _, s := range c.halo.strips[e] {
			c.addCopy(&c.p.sweepers[e], dst, c.envs[s.owner].Field(c.prog.Output), s.reg, decomp.LongestDim(s.reg))
		}
	}
}

// TeamStats counts one team's items in one walk of the main program. A fused
// swap-barrier crossing (every team worker arrives, the last arriver swaps)
// is one swap per team, an unsynchronized core-level swap one per worker:
// SwapItems counts swaps performed, not items emitted.
type TeamStats struct {
	KernelItems  int
	CopyItems    int
	SwapItems    int
	BarrierWaits int
}

// ScheduleStats summarizes a compiled schedule for inspection. Item counts
// cover one walk of the main program — one time step without temporal
// blocking, one k-block of KSteps steps with it.
type ScheduleStats struct {
	// KernelItems / CopyItems / SwapItems / BarrierWaits total the per-team
	// counts of Teams (indexed like the scheduler's teams) over all
	// workers; Barriers counts distinct barrier objects.
	KernelItems  int
	CopyItems    int
	SwapItems    int
	BarrierWaits int
	Teams        []TeamStats
	Barriers     int
	// MaxItemsPerWorker is the longest per-worker step program.
	MaxItemsPerWorker int
	// Stages is the program's stage count; PhaseGroups the number of
	// fused phase groups the schedule executes them as. Fusion cuts the
	// per-block phase barriers from Stages to PhaseGroups (equal when
	// fusion is disabled).
	Stages      int
	PhaseGroups int
	// KSteps is the temporal-blocking factor one walk of the schedule
	// advances (1 = step-at-a-time); KStepFallbackReason says why a
	// requested Config.KSteps > 1 fell back to 1. RemainderSteps counts the
	// trailing sub-block's inner steps when the configured step count is
	// not a multiple of KSteps.
	KSteps              int
	KStepFallbackReason string
	RemainderSteps      int
	// Feedback is the schedule's feedback-publication mode; SwapFeedback
	// mirrors Schedule.SwapFeedback (the shared-environment swap).
	Feedback     FeedbackMode
	SwapFeedback bool
	// HaloStrips / HaloBytes total the swap+halo exchange per global join
	// (zero in the other modes); FallbackReason says why a copy-mode island
	// schedule did not compile the halo-strip exchange.
	HaloStrips     int
	HaloBytes      int64
	FallbackReason string
	// WrapFallbackReason says why the periodic wrap bands of some dimension
	// were skipped (a stage halo wider than the domain; results near that
	// seam then lag the sequential reference). WindowFallbackReason says why
	// a Config.Keep window was not honoured and the whole domain is swept.
	WrapFallbackReason   string
	WindowFallbackReason string
}

// Stats summarizes the schedule.
func (s *Schedule) Stats() ScheduleStats {
	st := ScheduleStats{Barriers: len(s.barriers), Teams: make([]TeamStats, len(s.items)),
		Feedback: s.mode, SwapFeedback: s.mode == FeedbackSwap,
		HaloStrips: s.haloStrips, HaloBytes: s.haloBytes, FallbackReason: s.fallbackReason,
		Stages: s.stages, PhaseGroups: s.groups,
		KSteps: s.ksteps, KStepFallbackReason: s.kstepReason, RemainderSteps: s.remSteps,
		WrapFallbackReason: s.wrapReason, WindowFallbackReason: s.windowReason}
	for t, team := range s.items {
		ts := &st.Teams[t]
		for w, items := range team {
			if len(items) > st.MaxItemsPerWorker {
				st.MaxItemsPerWorker = len(items)
			}
			for i := range items {
				switch items[i].kind {
				case kernelItem:
					ts.KernelItems++
				case copyItem:
					ts.CopyItems++
				case swapItem:
					if items[i].bar == nil || w == 0 {
						ts.SwapItems++
					}
				case barrierItem:
					ts.BarrierWaits++
				}
			}
		}
		st.KernelItems += ts.KernelItems
		st.CopyItems += ts.CopyItems
		st.SwapItems += ts.SwapItems
		st.BarrierWaits += ts.BarrierWaits
	}
	return st
}

func (st ScheduleStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule: %d stages in %d phase groups, %d kernel items, %d copy items, %d waits at %d barriers, max %d items/worker, feedback=%s",
		st.Stages, st.PhaseGroups, st.KernelItems, st.CopyItems, st.BarrierWaits, st.Barriers, st.MaxItemsPerWorker, st.Feedback)
	if st.KSteps > 1 {
		fmt.Fprintf(&b, ", ksteps=%d (%d inner swaps", st.KSteps, st.SwapItems)
		if st.RemainderSteps > 0 {
			fmt.Fprintf(&b, ", %d-step remainder", st.RemainderSteps)
		}
		b.WriteString(")")
	}
	if st.Feedback == FeedbackSwapHalo {
		fmt.Fprintf(&b, " (%d strips, %d B/step)", st.HaloStrips, st.HaloBytes)
	}
	if st.FallbackReason != "" {
		fmt.Fprintf(&b, " (halo fallback: %s)", st.FallbackReason)
	}
	if st.KStepFallbackReason != "" {
		fmt.Fprintf(&b, " (ksteps fallback: %s)", st.KStepFallbackReason)
	}
	if st.WrapFallbackReason != "" {
		fmt.Fprintf(&b, " (wrap fallback: %s)", st.WrapFallbackReason)
	}
	if st.WindowFallbackReason != "" {
		fmt.Fprintf(&b, " (window fallback: %s)", st.WindowFallbackReason)
	}
	return b.String()
}
