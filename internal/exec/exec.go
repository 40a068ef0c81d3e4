// Package exec implements the paper's three execution strategies for
// heterogeneous stencil programs — the original stage-by-stage version, the
// pure (3+1)D decomposition, and the islands-of-cores approach — with two
// interchangeable backends: a compute backend that performs the real
// numerical work on goroutine work teams (internal/sched), and a model
// backend that emits resource flows into the machine simulator
// (internal/simmach) to estimate execution time on the simulated SMP/NUMA
// platform.
package exec

import (
	"fmt"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// Strategy selects the execution strategy.
type Strategy int

const (
	// Original runs each stage over the whole domain with all cores,
	// spilling every intermediate array to main memory.
	Original Strategy = iota
	// Plus31D is the pure (3+1)D decomposition: all cores cooperate on
	// one cache-sized block at a time through all stages.
	Plus31D
	// IslandsOfCores partitions the domain across islands (one per NUMA
	// node); each island runs (3+1)D internally and computes redundant
	// boundary trapezoids instead of communicating (scenario 2).
	IslandsOfCores
)

func (s Strategy) String() string {
	switch s {
	case Original:
		return "original"
	case Plus31D:
		return "(3+1)D"
	case IslandsOfCores:
		return "islands-of-cores"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Config describes one execution of a stencil program.
type Config struct {
	Machine  *topology.Machine
	Strategy Strategy
	// Placement is the NUMA page placement of the program's arrays.
	Placement grid.PlacementPolicy
	// Variant selects the island partitioning dimension (1D variant A/B).
	Variant decomp.Variant
	// IslandGrid, when non-zero, selects the 2D island partitioning the
	// paper names as future work (§4.2): the domain is cut into
	// IslandGrid[0] x IslandGrid[1] parts over the first two dimensions.
	// The product must equal the machine's node count. Zero means the 1D
	// partitioning selected by Variant.
	IslandGrid [2]int
	// BlockI overrides the computed (3+1)D block width (0 = derive from
	// the node's LLC capacity). Tests use it to force multi-block runs
	// on small grids.
	BlockI int
	// Boundary is the domain boundary condition for the compute backend.
	Boundary stencil.Boundary
	// Steps is the number of time steps.
	Steps int
	// DisableFusion turns off stage fusion in the compiled compute
	// schedule: every stage becomes its own phase with its own barrier,
	// as in the paper's original formulation. The default (false) groups
	// consecutive dependency-independent stages into single sweeps
	// (stencil.PlanFusion), cutting per-block phase barriers 17 -> 7 for
	// MPDATA. Tests and benchmarks use it as the fusion ablation.
	DisableFusion bool
	// CoreIslands applies the islands idea inside each island (the
	// paper's §6 future work): every core of a work team becomes a
	// sub-island that computes its own j-trapezoids redundantly instead
	// of exchanging intra-socket halos, eliminating the per-stage team
	// synchronization within each block. Only meaningful with
	// IslandsOfCores.
	CoreIslands bool
	// KSteps > 1 runs the whole Run as one temporal block: every island
	// advances KSteps == Steps full time steps on its private buffers with
	// no global join in between. Within the block the per-phase barriers
	// stay island-local, the redundant trapezoids widen by one step extent
	// per remaining inner step (the classic time-skewed trapezoid, earliest
	// step widest), and the halo-strip exchange plus feedback swap happen
	// once, at the end. 0 or 1 means step-at-a-time execution; any other
	// value must equal Steps (Validate). Streamed tiles set it
	// (StreamTileConfig): a tile is loaded, advanced and written back as one
	// block. KSteps > 1 requires the islands-of-cores strategy and a program
	// with a declared Feedback input; when the partition cannot carry the
	// k-step halo (parts narrower than fext.Scale(k), or periodic wrap reads
	// that would cross island ownership mid-block) the runner falls back
	// loudly to k=1 and records the reason
	// (ScheduleStats.KStepFallbackReason). Results are bit-identical to k=1
	// execution for every k.
	KSteps int
	// ModelParams overrides the machine-model constants for sensitivity
	// studies (nil = the calibrated defaults of params.go).
	ModelParams *Params
	// NodeOrder maps island index -> NUMA node, implementing the paper's
	// §4.2 affinity requirement: "all the neighbour parts should be
	// assigned to the adjacent processors ... by controlling the OpenMP
	// Thread Affinity interface". Nil means the identity mapping (island
	// i on node i — the adjacency-preserving assignment on the UV's
	// linear blade layout). A permutation models a scattered affinity.
	NodeOrder []int
	// Keep, when non-zero, is the window of the final output the caller will
	// read: the plan partitions Keep instead of the domain, so the backward
	// extents sweep exactly the time-skewed trapezoid under the window and
	// nothing outside it. Cells outside Keep are unspecified after Run, which
	// is why the window holds only while one Run is a single block (Steps ==
	// 1 or the effective KSteps): a second block would read them. Otherwise the
	// plan partitions the whole domain as without a window and records why
	// (ScheduleStats.WindowFallbackReason). Internal: internal/stream sets it
	// to a tile's owned planes; no spec field, flag or variable reaches it.
	Keep grid.Region
}

// params resolves the model constants for this plan.
func (p *plan) params() Params {
	if p.cfg.ModelParams != nil {
		return *p.cfg.ModelParams
	}
	return DefaultParams()
}

// nodeOf returns the NUMA node hosting island i under the configured order.
func (c *Config) nodeOf(island int) int {
	if c.NodeOrder == nil {
		return island
	}
	return c.NodeOrder[island]
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.Machine == nil {
		return fmt.Errorf("exec: config needs a machine")
	}
	if c.Steps <= 0 {
		return fmt.Errorf("exec: steps must be positive, got %d", c.Steps)
	}
	switch c.Strategy {
	case Original, Plus31D, IslandsOfCores:
	default:
		return fmt.Errorf("exec: unknown strategy %d", int(c.Strategy))
	}
	if c.CoreIslands && c.Strategy != IslandsOfCores {
		return fmt.Errorf("exec: CoreIslands requires the islands-of-cores strategy")
	}
	if c.KSteps < 0 {
		return fmt.Errorf("exec: KSteps must be non-negative, got %d", c.KSteps)
	}
	if c.KSteps > 1 && c.Strategy != IslandsOfCores {
		return fmt.Errorf("exec: KSteps > 1 requires the islands-of-cores strategy")
	}
	if c.KSteps > 1 && c.KSteps != c.Steps {
		return fmt.Errorf("exec: KSteps %d must equal Steps %d (a temporal block is the whole Run)", c.KSteps, c.Steps)
	}
	if c.NodeOrder != nil {
		if c.Strategy != IslandsOfCores {
			return fmt.Errorf("exec: NodeOrder requires the islands-of-cores strategy")
		}
		if len(c.NodeOrder) != c.Machine.NumNodes() {
			return fmt.Errorf("exec: NodeOrder has %d entries for %d nodes", len(c.NodeOrder), c.Machine.NumNodes())
		}
		seen := make([]bool, c.Machine.NumNodes())
		for _, n := range c.NodeOrder {
			if n < 0 || n >= len(seen) || seen[n] {
				return fmt.Errorf("exec: NodeOrder is not a permutation of 0..%d", len(seen)-1)
			}
			seen[n] = true
		}
	}
	return nil
}

// joinKind names the barrier a sweeper's workers meet at between phases.
type joinKind uint8

const (
	// joinGlobal is the machine-wide barrier: the sweeper is every core of
	// the machine on the one shared environment, so the step output needs no
	// exchange — the driver swaps it into the feedback input.
	joinGlobal joinKind = iota
	// joinTeam is the team's own barrier: the sweeper is one island.
	joinTeam
	// joinNone is a single worker with nothing to join: a core-level
	// sub-island.
	joinNone
)

// workerID addresses one worker of the scheduler: its team and its index
// within the team.
type workerID struct{ team, worker int }

// sweeper is the set of workers that share one stencil.Env, one join barrier
// and one owned output region, and walk that region's (inner step x block x
// fused group) sweep together. The four execution shapes differ only in this
// list: Original is one sweeper of all cores whose phase units are cut along
// i, Plus31D the same cut along j, the islands strategy one sweeper per team,
// core-level sub-islands one per worker — where "split across one worker"
// and "no barrier" are simply what a 1-worker sweeper does.
type sweeper struct {
	// island indexes plan.parts / blocks / spansK: the blocks the sweeper
	// walks and the wavefront spans it restricts.
	island int
	// owned is the output region the sweeper publishes: the island's part,
	// or a worker's j-slice of it.
	owned grid.Region
	// workers are the sweeper's members; phase units, publish copies and
	// halo strips are cut into one chunk per member, in this order.
	workers []workerID
	// dim is the dimension phase units are cut along.
	dim  int
	join joinKind
}

// plan captures the geometry shared by both backends: the island partition,
// the block decomposition, and the per-stage wavefront spans.
type plan struct {
	cfg      Config
	prog     *stencil.Program
	analysis *stencil.HaloAnalysis
	domain   grid.Size
	// parts[i] is island i's output region. Original and Plus31D use a
	// single island covering the whole domain.
	parts []grid.Region
	// blocks[i] lists island i's (3+1)D blocks ([1 whole-region block]
	// for Original).
	blocks [][]grid.Region
	// spans[i][s][b] is the region of stage s computed in block b of
	// island i.
	spans [][][]grid.Region
	// sweepers lists who sweeps what, in the order the halo geometry, the
	// runner's environment list and the schedule compiler all share.
	sweepers []sweeper
	// ksteps is the effective temporal-blocking factor: 1 unless
	// Config.KSteps > 1 was requested and is feasible, in which case the
	// requested value. kstepReason records why a requested factor fell back
	// to 1 — the loud half of the fallback rule, surfaced through
	// ScheduleStats.KStepFallbackReason.
	ksteps      int
	kstepReason string
	// wrapReason records why periodic wrap bands (see wrap.go) were skipped
	// for some dimension — a stage halo wider than the domain. Empty on the
	// clamp boundary and whenever the bands compiled as designed. Surfaced
	// through ScheduleStats.WrapFallbackReason.
	wrapReason string
	// windowReason records why a requested Config.Keep was not honoured and
	// the whole domain partitioned instead (ScheduleStats.
	// WindowFallbackReason); empty when no window was requested or parts
	// partitions it.
	windowReason string
	// fext is the feedback input's one-step extent (ksteps > 1 only): the
	// per-inner-step growth of the time-skewed trapezoids.
	fext stencil.Extent
	// khalo is the halo-strip exchange geometry widened to the k-step
	// extent fext.Scale(ksteps) (ksteps > 1 only; k-step execution always
	// runs in swap+halo mode).
	khalo *haloGeom
	// spansK[d][i][s][b] is the region of stage s computed in block b of
	// island i for the inner step at distance d from the block's final step
	// (d = 0 is the final inner step; spansK[0] aliases spans, so k=1
	// geometry is bit-identical to the unblocked plan). Earlier inner steps
	// target the part grown by fext.Scale(d), tiled over the island's same
	// fixed cache blocks.
	spansK [][][][]grid.Region
	// fuse groups consecutive dependency-independent stages into the
	// phases the compiled compute schedule executes (one sweep, one
	// barrier per group). With Config.DisableFusion it degenerates to one
	// group per stage.
	fuse *stencil.FusionPlan
	// trace enables simulator event recording in the model backend.
	trace bool
}

// newPlan builds the execution geometry for a config, program and domain.
func newPlan(cfg Config, prog *stencil.Program, domain grid.Size) (*plan, error) {
	analysis, err := stencil.Analyze(prog)
	if err != nil {
		return nil, err
	}
	return newPlanWith(cfg, prog, analysis, domain)
}

// newPlanWith is newPlan for a caller that already holds prog's analysis
// (the residency search builds several plans per pick).
func newPlanWith(cfg Config, prog *stencil.Program, analysis *stencil.HaloAnalysis, domain grid.Size) (*plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var err error
	p := &plan{cfg: cfg, prog: prog, analysis: analysis, domain: domain}
	if cfg.DisableFusion {
		p.fuse = stencil.SingletonFusion(prog)
	} else {
		p.fuse, err = stencil.PlanFusion(prog)
		if err != nil {
			return nil, err
		}
	}

	whole := grid.WholeRegion(domain)
	keep := cfg.Keep
	if keep == (grid.Region{}) {
		keep = whole
	} else if keep.Empty() || !whole.ContainsRegion(keep) {
		return nil, fmt.Errorf("exec: Config.Keep %v is not a non-empty part of domain %v", keep, domain)
	}
	err = p.partition(keep)
	if keep != whole && (err != nil || cfg.Steps > p.ksteps) {
		// The window holds only for a single-block Run. Fall back loudly to
		// the whole-domain partition — the plan of the same config without
		// Keep — and record why.
		var reason string
		switch {
		case err != nil:
			reason = err.Error()
		case p.kstepReason != "":
			reason = fmt.Sprintf("%d steps do not run as one block (ksteps fell back to 1: %s)", cfg.Steps, p.kstepReason)
		default:
			reason = fmt.Sprintf("%d steps run one at a time, and every step but the last needs the whole domain", cfg.Steps)
		}
		err = p.partition(whole)
		p.windowReason = reason
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// partition builds the plan's geometry over the output window keep (the whole
// domain, or Config.Keep): the island parts that tile it, their blocks and
// sweepers, the per-stage wavefront spans and the k-step geometry. Everything
// downstream — spans, halo strips, feedback sync and reload boxes — derives
// from the parts, so a window narrows them all at once.
func (p *plan) partition(keep grid.Region) error {
	cfg, prog, domain := p.cfg, p.prog, p.domain
	blockI := cfg.BlockI
	if blockI <= 0 {
		blockI = decomp.ChooseBlock(domain, cfg.Machine.Nodes[0].LLCBytes, 0).BI
	}
	// teams[t] lists the workers of node t's work team (sched.New builds one
	// team per node, numbering cores team by team).
	teams := make([][]workerID, cfg.Machine.NumNodes())
	var cores []workerID
	for t, node := range cfg.Machine.Nodes {
		for w := 0; w < node.Cores; w++ {
			teams[t] = append(teams[t], workerID{t, w})
		}
		cores = append(cores, teams[t]...)
	}
	// This switch is the one place the strategies differ: the partition, the
	// blocking, and who sweeps it.
	p.sweepers = nil
	switch cfg.Strategy {
	case Original:
		p.parts = []grid.Region{keep}
		p.blocks = [][]grid.Region{{keep}}
		p.sweepers = []sweeper{{owned: keep, workers: cores, dim: 0, join: joinGlobal}}
	case Plus31D:
		p.parts = []grid.Region{keep}
		p.blocks = [][]grid.Region{decomp.BlocksAlongI(keep, blockI)}
		p.sweepers = []sweeper{{owned: keep, workers: cores, dim: 1, join: joinGlobal}}
	case IslandsOfCores:
		n := cfg.Machine.NumNodes()
		// The islands tile the window: partition a domain of its size, then
		// shift the parts to where it sits.
		size := grid.Sz(keep.I1-keep.I0, keep.J1-keep.J0, keep.K1-keep.K0)
		if cfg.IslandGrid != [2]int{} {
			pi, pj := cfg.IslandGrid[0], cfg.IslandGrid[1]
			if pi <= 0 || pj <= 0 || pi*pj != n {
				return fmt.Errorf("exec: island grid %dx%d must multiply to the node count %d", pi, pj, n)
			}
			if size.NI < pi || size.NJ < pj {
				return fmt.Errorf("exec: island grid %dx%d does not fit domain %v", pi, pj, size)
			}
			p.parts = decomp.Partition2D(size, pi, pj)
		} else {
			partDim := size.NI
			if cfg.Variant == decomp.VariantB {
				partDim = size.NJ
			}
			if partDim < n {
				return fmt.Errorf("exec: cannot place %d islands along a dimension of %d cells", n, partDim)
			}
			p.parts = decomp.Partition1D(size, n, cfg.Variant)
		}
		p.blocks = make([][]grid.Region, n)
		for i := range p.parts {
			part := &p.parts[i]
			part.I0, part.I1 = part.I0+keep.I0, part.I1+keep.I0
			part.J0, part.J1 = part.J0+keep.J0, part.J1+keep.J0
			part.K0, part.K1 = part.K0+keep.K0, part.K1+keep.K0
		}
		for i, part := range p.parts {
			p.blocks[i] = decomp.BlocksAlongI(part, blockI)
			if !cfg.CoreIslands {
				p.sweepers = append(p.sweepers, sweeper{island: i, owned: part, workers: teams[i], dim: 1, join: joinTeam})
				continue
			}
			for w, sub := range decomp.SplitDim(part, 1, len(teams[i])) {
				p.sweepers = append(p.sweepers, sweeper{island: i, owned: sub, workers: teams[i][w : w+1], dim: 1, join: joinNone})
			}
		}
	}

	p.spans = make([][][]grid.Region, len(p.parts))
	for i, part := range p.parts {
		p.spans[i] = make([][]grid.Region, len(prog.Stages))
		for s := range prog.Stages {
			stageRegion := p.analysis.StageRegion(s, part, domain)
			if cfg.Strategy == Original {
				// No blocking: the stage covers the whole domain.
				p.spans[i][s] = []grid.Region{stageRegion}
				continue
			}
			ihi := p.analysis.StageExtents[s].IHi
			p.spans[i][s] = decomp.WavefrontSpans(stageRegion, p.blocks[i], ihi)
		}
	}
	p.planKSteps()
	return nil
}

// planKSteps decides the effective temporal-blocking factor and builds the
// per-inner-step span geometry. A requested Config.KSteps > 1 needs every
// inner step's reads to resolve inside the islands' private k-step buffers:
// the swap+halo geometry must be feasible for the k-step extent, and under a
// periodic boundary every island must span each wrapped dimension the
// feedback stencil reaches across — a wrapped read inside a k-block would
// otherwise alias cells another island computed, which the block-local swap
// cannot reproduce. Any violation falls back to k=1 with a recorded reason.
func (p *plan) planKSteps() {
	p.ksteps, p.kstepReason, p.khalo = 1, "", nil
	p.spansK = [][][][]grid.Region{p.spans}
	k := p.cfg.KSteps
	if k <= 1 || p.cfg.Strategy != IslandsOfCores {
		return
	}
	fb := p.prog.Feedback
	if fb == "" {
		p.kstepReason = fmt.Sprintf("program %q declares no feedback input", p.prog.Name)
		return
	}
	fext := p.analysis.InputExtents[fb]
	owned := p.owned()
	if p.cfg.Boundary == stencil.Periodic && !fext.IsZero() {
		dims := [3]int{p.domain.NI, p.domain.NJ, p.domain.NK}
		lo := [3]int{fext.ILo, fext.JLo, fext.KLo}
		hi := [3]int{fext.IHi, fext.JHi, fext.KHi}
		names := [3]string{"i", "j", "k"}
		for _, r := range owned {
			if r.Empty() {
				continue
			}
			w := [3]int{r.I1 - r.I0, r.J1 - r.J0, r.K1 - r.K0}
			for d := 0; d < 3; d++ {
				if (lo[d] > 0 || hi[d] > 0) && w[d] < dims[d] {
					p.kstepReason = fmt.Sprintf(
						"periodic wrap along %s crosses island ownership mid-block (part %v does not span the domain)",
						names[d], r)
					return
				}
			}
		}
	}
	halo, reason := haloGeometry(owned, fext.Scale(k), p.domain, p.cfg.Boundary)
	if halo == nil {
		p.kstepReason = reason
		return
	}
	p.ksteps, p.fext, p.khalo = k, fext, halo
	for d := 1; d < k; d++ {
		sp := make([][][]grid.Region, len(p.parts))
		for i, part := range p.parts {
			target := p.targetAt(d, part)
			sp[i] = make([][]grid.Region, len(p.prog.Stages))
			for s := range p.prog.Stages {
				stageRegion := p.analysis.StageRegion(s, target, p.domain)
				ihi := p.analysis.StageExtents[s].IHi
				sp[i][s] = decomp.WavefrontSpans(stageRegion, p.blocks[i], ihi)
			}
		}
		p.spansK = append(p.spansK, sp)
	}
}

// targetAt returns the output region of the inner step at distance d from a
// k-block's final step, for an island (or sub-island) owning out: the owned
// region grown by d feedback extents, clamped to the domain. Soundness of
// the whole block follows from extent composition: the step at distance d+1
// covers the feedback reads of the step at distance d, face by face, and
// clamping resolves out-of-domain reads to in-domain boundary cells inside
// the clamped region.
func (p *plan) targetAt(d int, out grid.Region) grid.Region {
	if d == 0 {
		return out
	}
	return p.fext.Scale(d).Apply(out).Clamp(p.domain)
}

// owned returns every sweeper's output region, in sweeper order — the
// partition the halo geometry is derived over.
func (p *plan) owned() []grid.Region {
	out := make([]grid.Region, len(p.sweepers))
	for e := range p.sweepers {
		out[e] = p.sweepers[e].owned
	}
	return out
}

// sharedEnv reports whether the plan's one sweeper is the whole machine on
// the shared environment (Original, Plus31D) — as opposed to islands on
// private environments, which must join and exchange after computing.
func (p *plan) sharedEnv() bool { return p.sweepers[0].join == joinGlobal }

// span returns the region of stage s that sweeper sw computes in block b of
// its island, for the inner step at distance d from a k-block's final step.
// A team-level sweeper owns the island's whole part, for which the
// sub-island restriction is the identity: it gets the island's span itself.
func (p *plan) span(sw *sweeper, d, s, b int) grid.Region {
	return p.workerRegionAt(d, sw.island, s, b, sw.owned)
}

// stageChunks returns the per-worker chunks of stage s's span in block b of
// island i, split along dim across n workers — what the model backend prices
// for the original strategy (the same decomp.SplitDim cut the compiled
// schedule makes of each phase unit).
func (p *plan) stageChunks(island, s, b, dim, n int) []grid.Region {
	return decomp.SplitDim(p.spans[island][s][b], dim, n)
}

// islandCellsAt returns the total cells island i computes for stage s
// (including redundant trapezoids) in the inner step at distance d from a
// k-block's final step (d = 0 is the plain one-step geometry).
func (p *plan) islandCellsAt(d, i, s int) int64 {
	var c int64
	for _, r := range p.spansK[d][i][s] {
		c += int64(r.Cells())
	}
	return c
}

// islandCellsAvg returns island i's per-step cell count for stage s averaged
// over the inner steps of a temporal block (islandCellsAt(0, ...) at k=1) —
// the per-step redundancy the model prices under temporal blocking.
func (p *plan) islandCellsAvg(i, s int) float64 {
	var c int64
	for d := 0; d < p.ksteps; d++ {
		c += p.islandCellsAt(d, i, s)
	}
	return float64(c) / float64(p.ksteps)
}

// runCells returns the stage cells one Run computes — every stage over every
// inner step's trapezoid, redundant growth included — and the output stage's
// share of them: the cells of each inner step's target. It is what the
// compiled schedule's kernel items cover (periodic wrap bands aside), which
// is how the stream cost model prices a tile.
func (p *plan) runCells() (stages, output int64) {
	walks := int64(p.cfg.Steps / p.ksteps) // Steps blocks of one step, or one of Steps
	for d := 0; d < p.ksteps; d++ {
		for i := range p.parts {
			for s := range p.prog.Stages {
				cells := p.islandCellsAt(d, i, s)
				if p.cfg.CoreIslands {
					cells = p.coreIslandCellsAt(d, i, s, p.cfg.Machine.Nodes[i].Cores)
				}
				stages += walks * cells
				if p.prog.Stages[s].Name == p.prog.Output {
					output += walks * cells
				}
			}
		}
	}
	return stages, output
}

// workerRegionAt restricts a stage span of island i to the j-trapezoid of one
// core's sub-island: the worker owning output sub-region sub computes stage
// s on the span's i/k ranges but only on sub grown by the stage's j-extent
// (clamped into the span) — the core-level islands of the paper's §6. d is
// the inner step's distance from a k-block's final step: the sub-island's own
// output target is sub grown by d feedback extents, and the stage span comes
// from the same inner step's island geometry.
func (p *plan) workerRegionAt(d, i, s, b int, sub grid.Region) grid.Region {
	span := p.spansK[d][i][s][b]
	if span.Empty() || sub.Empty() {
		return grid.Region{}
	}
	target := p.targetAt(d, sub)
	ext := p.analysis.StageExtents[s]
	out := span
	out.J0 = max(span.J0, target.J0-ext.JLo)
	out.J1 = min(span.J1, target.J1+ext.JHi)
	if out.Empty() {
		return grid.Region{}
	}
	return out
}

// coreIslandCellsAt returns the total cells island i computes for stage s in
// the inner step at distance d when its part is further split into n
// core-level sub-islands along j.
func (p *plan) coreIslandCellsAt(d, i, s, n int) int64 {
	subs := decomp.SplitDim(p.parts[i], 1, n)
	var c int64
	for b := range p.spansK[d][i][s] {
		for _, sub := range subs {
			c += int64(p.workerRegionAt(d, i, s, b, sub).Cells())
		}
	}
	return c
}

// coreIslandCellsAvg averages coreIslandCellsAt over a temporal block's
// inner steps.
func (p *plan) coreIslandCellsAvg(i, s, n int) float64 {
	var c int64
	for d := 0; d < p.ksteps; d++ {
		c += p.coreIslandCellsAt(d, i, s, n)
	}
	return float64(c) / float64(p.ksteps)
}

// UsefulFlopsPerStep returns the baseline flop count of one step (each stage
// exactly once per domain cell) — the flops the paper's sustained
// performance (Table 4) is computed from.
func UsefulFlopsPerStep(prog *stencil.Program, domain grid.Size) float64 {
	return float64(prog.TotalFlopsPerCellStep()) * float64(domain.Cells())
}

// OriginalTraversals returns how many full-array sweeps of main-memory
// traffic one original-version step performs: each stage re-reads its inputs
// from memory and writes its output back (63 + 17 = 80 for MPDATA,
// reproducing the paper's 133 GB per 50 steps on a 256x256x64 grid).
func OriginalTraversals(prog *stencil.Program) int {
	n := 0
	for i := range prog.Stages {
		n += len(prog.Stages[i].Inputs) + 1
	}
	return n
}
