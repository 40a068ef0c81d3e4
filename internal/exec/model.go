package exec

import (
	"fmt"
	"math"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/simmach"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// ModelResult is the outcome of pricing one configuration on the simulated
// machine.
type ModelResult struct {
	Config   Config
	Domain   grid.Size
	StepTime float64
	// TotalTime covers all configured steps.
	TotalTime float64
	// UsefulFlops is the baseline flop count of the run (each stage once
	// per domain cell), the numerator of sustained performance.
	UsefulFlops float64
	// RedundantFlops counts the islands' trapezoid recomputation.
	RedundantFlops float64
	// MemTrafficBytes is the total main-memory traffic of the run.
	MemTrafficBytes float64
	// RemoteTrafficBytes is the total traffic over NUMAlink.
	RemoteTrafficBytes float64
	// ExtraElementsPct is Table 2's redundancy metric.
	ExtraElementsPct float64
	// NodeMemBytes[n] is the traffic served by node n's memory
	// controller over the run — the per-socket counters a tool like
	// likwid-perfctr reports on the real machine.
	NodeMemBytes []float64
	// LinkBytes[l] is the traffic over interconnect link l (both
	// directions) over the run.
	LinkBytes []float64

	// sim and simRes keep the traced machine run for ModelTrace.
	sim    *simmach.Sim
	simRes *simmach.Result
}

// TagTimes returns the per-item-tag busy times of the traced machine run
// (nil unless the result came from ModelTrace).
func (r *ModelResult) TagTimes() map[string]float64 {
	if r.sim == nil {
		return nil
	}
	return r.sim.TagTimes()
}

// SustainedFlops returns useful flop/s over the modeled run.
func (r *ModelResult) SustainedFlops() float64 {
	if r.TotalTime == 0 {
		return 0
	}
	return r.UsefulFlops / r.TotalTime
}

// machModel binds the topology to simulator resources.
type machModel struct {
	sim     *simmach.Sim
	m       *topology.Machine
	par     Params
	coreRes []int
	memRes  []int
	l3Res   []int
	// linkRes[l] holds the two directional resources of link l
	// ([0] = A->B, [1] = B->A).
	linkRes [][2]int
	// coreRate is the effective per-core kernel throughput.
	coreRate float64
}

func newMachModel(m *topology.Machine, par Params) *machModel {
	mm := &machModel{sim: simmach.New(), m: m, par: par}
	mm.coreRate = par.CacheKernelFlopsPerCore
	if m.NumNodes() > 1 {
		mm.coreRate *= par.DSMCoherenceFactor
	}
	for c := 0; c < m.TotalCores(); c++ {
		mm.coreRes = append(mm.coreRes, mm.sim.AddResource(fmt.Sprintf("core%d", c), mm.coreRate))
	}
	for _, n := range m.Nodes {
		// The node's sustained stream bandwidth comes from the machine
		// description (topology), keeping one source of truth; the
		// calibration derivation lives with MemBWBytes in params.go.
		mm.memRes = append(mm.memRes, mm.sim.AddResource(fmt.Sprintf("mem%d", n.ID), n.MemBWBytes))
		mm.l3Res = append(mm.l3Res, mm.sim.AddResource(fmt.Sprintf("l3.%d", n.ID), par.L3BWBytes))
	}
	for _, l := range m.Links {
		fwd := mm.sim.AddResource(fmt.Sprintf("link%d.fwd", l.ID), l.BWBytes)
		rev := mm.sim.AddResource(fmt.Sprintf("link%d.rev", l.ID), l.BWBytes)
		mm.linkRes = append(mm.linkRes, [2]int{fwd, rev})
	}
	return mm
}

// pathRes returns the directional link resources data traverses flowing from
// node `from` to node `to`.
func (mm *machModel) pathRes(from, to int) []int {
	var out []int
	at := from
	for _, li := range mm.m.Path(from, to) {
		l := mm.m.Links[li]
		if at == l.A {
			out = append(out, mm.linkRes[li][0])
			at = l.B
		} else {
			out = append(out, mm.linkRes[li][1])
			at = l.A
		}
	}
	return out
}

// readFlow models a core on `node` streaming bytes from memory homed at
// `home`: the data traverses home's memory controller and the links toward
// the reader; remote streams are additionally capped by the outstanding-line
// limit over the round-trip latency.
func (mm *machModel) readFlow(node, home int, bytes float64) simmach.Flow {
	f := simmach.Flow{Demand: bytes, Resources: append([]int{mm.memRes[home]}, mm.pathRes(home, node)...)}
	if home != node {
		f.MaxRate = mm.par.RemoteStreamLines * CacheLineBytes / remoteRTT(mm.m.PathLatency(home, node))
	}
	return f
}

// writeFlows models a core on `node` writing bytes back to memory at `home`.
// Local writes use streaming (non-temporal) stores: one traversal of the
// memory controller. Remote writes on a DSM machine additionally pay a
// read-for-ownership through the directory, so the written bytes also travel
// the home->writer direction before the writeback.
func (mm *machModel) writeFlows(node, home int, bytes float64) []simmach.Flow {
	wb := simmach.Flow{Demand: bytes, Resources: append(mm.pathRes(node, home), mm.memRes[home])}
	if home == node {
		return []simmach.Flow{wb}
	}
	cap := mm.par.RemoteStreamLines * CacheLineBytes / remoteRTT(mm.m.PathLatency(node, home))
	wb.MaxRate = cap
	rfo := simmach.Flow{
		Demand:    bytes,
		Resources: append([]int{mm.memRes[home]}, mm.pathRes(home, node)...),
		MaxRate:   cap,
	}
	return []simmach.Flow{wb, rfo}
}

// c2cFlow models a cache-to-cache halo pull by a core on `to` from a cache
// on `from`: within a socket it rides the L3 ring; across sockets it is a
// directory-mediated transfer with little memory-level parallelism.
func (mm *machModel) c2cFlow(from, to int, bytes float64) simmach.Flow {
	if from == to {
		return simmach.Flow{Demand: bytes, Resources: []int{mm.l3Res[from]}}
	}
	return simmach.Flow{
		Demand:    bytes,
		Resources: mm.pathRes(from, to),
		MaxRate: mm.par.C2CLines * CacheLineBytes /
			(mm.par.C2CHopFactor*mm.m.PathLatency(from, to) + mm.par.C2CBaseLatency),
	}
}

// barrierCost prices one barrier over ncores spread across the given nodes:
// a log-depth software tree within a socket, a flat fan-out over the DSM hub
// agents across sockets, plus the interconnect traversals of the release.
func (mm *machModel) barrierCost(nodes []int, ncores int) float64 {
	levels := math.Log2(float64(ncores))
	if levels < 1 {
		levels = 1
	}
	return mm.par.BarrierBase + levels*mm.par.BarrierPerLevel +
		float64(len(nodes))*mm.par.BarrierPerNode +
		mm.par.BarrierHopFactor*mm.m.DiameterLatency(nodes)
}

// allNodes returns 0..n-1.
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// sideHalo sums per-side halo columns over a sweep's input arrays.
type sideHalo struct {
	iLo, iHi, jLo, jHi float64 // summed over input arrays, in columns
}

// groupHalo sums the per-side halo columns of one fused group's sweep: the
// group's distinct inputs, each counted once at its merged (maximum) extent
// — a fused sweep pulls each shared input's halo once, not once per member.
func groupHalo(fp *stencil.FusionPlan, gi int) sideHalo {
	var h sideHalo
	for _, e := range fp.GroupInputs(gi) {
		h.iLo += float64(e.ILo)
		h.iHi += float64(e.IHi)
		h.jLo += float64(e.JLo)
		h.jHi += float64(e.JHi)
	}
	return h
}

// Model prices one configuration and returns the timing and traffic
// estimate. Steps are homogeneous (the paper relies on the same property to
// benchmark only 50 of them), so one representative step — and, for blocked
// strategies, one representative block per island — is simulated and scaled.
func Model(cfg Config, prog *stencil.Program, domain grid.Size) (*ModelResult, error) {
	return model(cfg, prog, domain, false)
}

// ModelTrace prices a configuration with event tracing enabled and
// additionally returns the rendered timeline of the simulated step (or
// representative block), with per-tag busy times — the model-side analogue
// of profiling the real run.
func ModelTrace(cfg Config, prog *stencil.Program, domain grid.Size, buckets int) (*ModelResult, string, error) {
	res, err := model(cfg, prog, domain, true)
	if err != nil {
		return nil, "", err
	}
	return res, res.sim.Timeline(res.simRes, buckets), nil
}

func model(cfg Config, prog *stencil.Program, domain grid.Size, trace bool) (*ModelResult, error) {
	p, err := newPlan(cfg, prog, domain)
	if err != nil {
		return nil, err
	}
	return modelPlan(p, trace)
}

// modelPlan prices an already built plan.
func modelPlan(p *plan, trace bool) (*ModelResult, error) {
	cfg, prog, domain := p.cfg, p.prog, p.domain
	p.trace = trace
	res := &ModelResult{
		Config:      cfg,
		Domain:      domain,
		UsefulFlops: UsefulFlopsPerStep(prog, domain) * float64(cfg.Steps),
	}
	// Redundancy accounting (exact, from the halo analysis): the sweepers'
	// spans tile each island's stage regions, so cells beyond the island's
	// own part are the trapezoid recomputation — with core-level
	// sub-islands, the per-worker j-trapezoids as well. With temporal
	// blocking the per-step count averages the widening trapezoids over a
	// k-block's inner steps (equal to the plain count at k=1).
	cells := p.islandCells()
	var redundantFlops, redundantCells float64
	for i, part := range p.parts {
		for s := range prog.Stages {
			extra := float64(cells[i][s])/float64(p.ksteps) - float64(part.Cells())
			redundantCells += extra
			redundantFlops += extra * float64(prog.Stages[s].Flops)
		}
	}
	res.RedundantFlops = redundantFlops * float64(cfg.Steps)
	res.ExtraElementsPct = 100 * redundantCells / (float64(len(prog.Stages)) * float64(domain.Cells()))

	if err := p.walk(res, cells); err != nil {
		return nil, err
	}
	res.TotalTime = res.StepTime * float64(cfg.Steps)
	return res, nil
}

// sweepGroup is one island's sweepers as the model prices them: the
// simulated cores their workers run on, the nodes those cores span, and the
// island's block count. An island's sweepers share their join kind and
// residency level.
type sweepGroup struct {
	island   int
	sweepers []sweeper
	cores    []int
	nodes    []int
	nblocks  int
}

// sweepGroups groups the plan's sweepers by island and maps worker w of team
// t to simulated core w of the node Config.nodeOf(t) — the identity unless a
// NodeOrder scatters the islands.
func (p *plan) sweepGroups() []sweepGroup {
	m := p.cfg.Machine
	// coreStart[n] is the first global core id of node n.
	coreStart := make([]int, m.NumNodes())
	for n := 1; n < len(coreStart); n++ {
		coreStart[n] = coreStart[n-1] + m.Nodes[n-1].Cores
	}
	var groups []sweepGroup
	for lo := 0; lo < len(p.sweepers); {
		island := p.sweepers[lo].island
		hi := lo
		for hi < len(p.sweepers) && p.sweepers[hi].island == island {
			hi++
		}
		g := sweepGroup{island: island, sweepers: p.sweepers[lo:hi], nblocks: len(p.blocks[island])}
		onNode := make([]bool, m.NumNodes())
		for _, sw := range g.sweepers {
			for _, w := range sw.workers {
				c := coreStart[p.cfg.nodeOf(w.team)] + w.worker
				g.cores = append(g.cores, c)
				onNode[m.CoreNode(c)] = true
			}
		}
		for n, on := range onNode {
			if on {
				g.nodes = append(g.nodes, n)
			}
		}
		groups = append(groups, g)
		lo = hi
	}
	return groups
}

// blockedSweeps is the main-memory traffic of one cache-level step in
// whole-array sweeps: the step inputs read and the output written once,
// inflated by the spill factor.
func blockedSweeps(prog *stencil.Program, par Params) float64 {
	return float64(len(prog.StepInputs)+1) * par.SpillFactor
}

// walk simulates one representative step of the plan's sweepers — one
// representative block per island — and fills in res's step time, traffic
// and counters. Steps are homogeneous, so the step is scaled to the run and
// each island's block to its block count. Two properties of an island's
// sweepers decide what is emitted:
//
//   - Residency level. A memory-level sweeper streams every stage's inputs
//     and output at the pages' homes in exact per-worker chunks (emitMemory);
//     a cache-level one pays a block's fill, its compute-overlapped stream and
//     the neighbour islands' input halo (emitCache).
//   - Join kind. joinGlobal and joinTeam workers meet at a barrier after every
//     stage — at the cache level after pulling their j-neighbours' halo from
//     cache to cache; joinNone workers run through unsynchronized.
func (p *plan) walk(res *ModelResult, cells [][]int64) error {
	cfg := p.cfg
	m := cfg.Machine
	mm := newMachModel(m, p.params())
	if p.trace {
		mm.sim.EnableTrace()
	}
	procs := make([]*simmach.Proc, m.TotalCores())
	for c := range procs {
		procs[c] = mm.sim.AddProc(fmt.Sprintf("core%d", c))
	}
	// The model prices the paper's per-stage execution: one phase, and one
	// set of halo pulls, per stage.
	fuse := stencil.SingletonFusion(p.prog)
	groups := p.sweepGroups()
	for gi := range groups {
		g := &groups[gi]
		if g.sweepers[0].level == inMemory {
			p.emitMemory(mm, procs, fuse, g)
		} else {
			p.emitCache(mm, procs, fuse, g, cells[g.island])
		}
	}

	simRes, err := mm.sim.Run()
	if err != nil {
		return err
	}
	res.sim, res.simRes = mm.sim, simRes
	// Each island repeats its representative block nblocks times; the step
	// ends at the slowest island.
	var stepTime float64
	maxBlocks := 0
	for _, g := range groups {
		var blockTime float64
		for _, c := range g.cores {
			if t := simRes.ProcEnd[c]; t > blockTime {
				blockTime = t
			}
		}
		if t := blockTime * float64(g.nblocks); t > stepTime {
			stepTime = t
		}
		maxBlocks = max(maxBlocks, g.nblocks)
	}
	sweeps := float64(OriginalTraversals(p.prog))
	if p.sweepers[0].level == inCache {
		sweeps = blockedSweeps(p.prog, mm.par)
		// A memory-level step ends at its last stage's machine-wide barrier;
		// a cache-level one adds one global join. Under temporal blocking that
		// join is paid once per k-block, and each of the k-1 inner-step
		// transitions costs one island-local barrier crossing — the private
		// feedback swap rides the release of the end-of-step team barrier
		// (Barrier.WaitDo), so there is no second crossing (and none at all
		// for joinNone sub-islands, which swap unsynchronized). The per-step
		// synchronization cost is the per-block cost over k — the barrier
		// saving the advisor trades against the widened trapezoids'
		// redundant compute in the stage items.
		global := mm.barrierCost(allNodes(m.NumNodes()), m.TotalCores())
		if p.ksteps > 1 {
			var swapBar float64
			for _, g := range groups {
				if g.sweepers[0].join == joinNone {
					continue
				}
				if b := mm.barrierCost(g.nodes, len(g.cores)); b > swapBar {
					swapBar = b
				}
			}
			k := float64(p.ksteps)
			stepTime += (global + (k-1)*swapBar) / k
		} else {
			stepTime += global
		}
	}
	res.StepTime = stepTime
	res.MemTrafficBytes = sweeps * domainBytes(p.domain) * float64(cfg.Steps)
	// Remote traffic scales with each island's block count; approximate
	// with the max block count (they differ by at most one).
	res.RemoteTrafficBytes = linkBytes(mm, simRes) * float64(maxBlocks) * float64(cfg.Steps)
	fillCounters(res, mm, simRes, float64(maxBlocks)*float64(cfg.Steps))
	return nil
}

// emitMemory prices a memory-level group's step: every worker sweeps its
// chunk of every stage — the decomp.SplitDim cut the compiled schedule makes
// of the sweeper's span — streaming the stage's inputs from and its output to
// main memory at the pages' home nodes.
func (p *plan) emitMemory(mm *machModel, procs []*simmach.Proc, fuse *stencil.FusionPlan, g *sweepGroup) {
	m := p.cfg.Machine
	ncores := len(g.cores)
	join := g.sweepers[0].join
	// Parallel first-touch follows the compute loops: pages are homed on the
	// node of the core whose i-chunk initializes (and later sweeps) them,
	// not on a coarse per-node split.
	iToNode := make([]int, p.domain.NI)
	for ci, chunk := range decomp.SplitDim(grid.WholeRegion(p.domain), 0, ncores) {
		for i := chunk.I0; i < chunk.I1; i++ {
			iToNode[i] = m.CoreNode(g.cores[ci])
		}
	}
	rowCells := p.domain.NJ * p.domain.NK
	placement := grid.NewPlacement(p.domain, p.cfg.Placement, m.NumNodes(), func(cell int) int {
		return iToNode[cell/rowCells]
	})
	rowBytes := float64(p.domain.NJ) * float64(p.domain.NK) * grid.CellBytes

	for s := range p.prog.Stages {
		st := &p.prog.Stages[s]
		var chunks []grid.Region
		for e := range g.sweepers {
			sw := &g.sweepers[e]
			chunks = append(chunks, decomp.SplitDim(p.span(sw, 0, s, 0), sw.dim, len(sw.workers))...)
		}
		var bar *simmach.Barrier
		if join != joinNone {
			bar = mm.sim.NewBarrier(ncores, mm.barrierCost(g.nodes, ncores))
		}
		halo := groupHalo(fuse, s)
		nInputs := float64(len(fuse.GroupInputs(s)))
		for ci, c := range g.cores {
			node := m.CoreNode(c)
			item := simmach.Item{Tag: fmt.Sprintf("stage%d", s)}
			if chunk := chunks[ci]; !chunk.Empty() {
				item.Flows = append(item.Flows, simmach.Flow{
					Demand:    float64(chunk.Cells()) * float64(st.Flops),
					Resources: []int{mm.coreRes[c]},
				})
				// Reads and the output write, split by page home.
				for h, b := range placement.RegionBytesPerNode(chunk) {
					if b == 0 {
						continue
					}
					item.Flows = append(item.Flows, mm.readFlow(node, h, float64(b)*nInputs))
					item.Flows = append(item.Flows, mm.writeFlows(node, h, float64(b))...)
				}
				// Halo reads at chunk edges crossing node boundaries: the
				// producer's output lives in main memory, so these are
				// memory streams from wherever the placement homed the halo
				// rows.
				if chunk.I0 > 0 && ci > 0 && m.CoreNode(g.cores[ci-1]) != node {
					if home := placement.NodeOfCell((chunk.I0 - 1) * rowCells); home != node {
						item.Flows = append(item.Flows, mm.readFlow(node, home, halo.iLo*rowBytes))
					}
				}
				if chunk.I1 < p.domain.NI && ci+1 < ncores && m.CoreNode(g.cores[ci+1]) != node {
					if home := placement.NodeOfCell(chunk.I1 * rowCells); home != node {
						item.Flows = append(item.Flows, mm.readFlow(node, home, halo.iHi*rowBytes))
					}
				}
			}
			procs[c].Add(item)
			if bar != nil {
				procs[c].Add(simmach.Item{Tag: "barrier", Barrier: bar})
			}
		}
	}
}

// emitCache prices a cache-level group's representative (middle) block:
// a serial fill, then every stage's average chunk per worker — cells from
// cells (the island's per-stage count over one k-block) spread over its
// inner steps, blocks and cores — with the block's overlapped memory stream
// apportioned to stages by their share of the compute.
func (p *plan) emitCache(mm *machModel, procs []*simmach.Proc, fuse *stencil.FusionPlan, g *sweepGroup, cells []int64) {
	cfg := p.cfg
	m := cfg.Machine
	nodes := m.NumNodes()
	ncores := len(g.cores)
	join := g.sweepers[0].join
	part := p.parts[g.island]
	blk := p.blocks[g.island][g.nblocks/2]

	// Pages of the block, as homed by parallel first-touch under the group's
	// own loops: an island touches its part with its own team, all on its
	// node; the machine-wide sweeper touches every block with all cores
	// chunked along j, whose fine interleave stripes the pages across every
	// node near-uniformly — whatever the placement. Otherwise serial first
	// touch homes an island's data on node 0, and interleaving everywhere.
	homes := g.nodes
	switch {
	case cfg.Placement == grid.Interleaved:
		homes = allNodes(nodes)
	case cfg.Placement == grid.FirstTouchSerial && join != joinGlobal:
		homes = []int{0}
	}
	share := 1 / float64(len(homes))

	// Memory traffic of one block: the compulsory sweeps plus spills, split
	// into a serial fill and an overlapped stream.
	partBytes := float64(part.Cells()) * grid.CellBytes
	blockBytes := blockedSweeps(p.prog, mm.par) * partBytes / float64(g.nblocks)
	serial := mm.par.MemSerialFraction * blockBytes
	overlapped := blockBytes - serial

	// Remote halo of the step inputs at island boundaries (cells of
	// neighbouring islands' first-touch pages each input must be read on,
	// exact from the halo analysis), amortized per block.
	var inputHalo float64
	if join != joinGlobal && nodes > 1 {
		for name := range p.analysis.InputExtents {
			r := p.analysis.InputRegion(name, part, p.domain)
			inputHalo += float64(r.Cells()-part.Cells()) * grid.CellBytes
		}
		inputHalo /= float64(g.nblocks)
	}

	// The halo lives on a neighbouring island's node: the next island's, or
	// — for the last island of a clamped domain, which has no next one — the
	// previous island's. Under adjacency-preserving affinity that node is one
	// hop away; under scattered affinity it can be across the machine (or
	// the cluster).
	next := (g.island + 1) % nodes
	if next == 0 && cfg.Boundary != stencil.Periodic {
		next = g.island - 1
	}
	neighbor := cfg.nodeOf(next)

	// Serial fill item: the start-of-block reads the prefetchers cannot
	// hide, shared across the island's cores.
	for _, c := range g.cores {
		fill := simmach.Item{Tag: "fill"}
		for _, h := range homes {
			fill.Flows = append(fill.Flows, mm.readFlow(m.CoreNode(c), h, serial*share/float64(ncores)))
		}
		if inputHalo > 0 {
			fill.Flows = append(fill.Flows, mm.readFlow(m.CoreNode(c), neighbor, inputHalo/float64(ncores)))
		}
		procs[c].Add(fill)
	}

	totalFlopsPerCell := float64(p.prog.TotalFlopsPerCellStep())
	// Chunk geometry for halo sizing: the block's i-width times NK columns.
	colBytes := float64(blk.I1-blk.I0) * float64(p.domain.NK) * grid.CellBytes
	for s := range p.prog.Stages {
		st := &p.prog.Stages[s]
		halo := groupHalo(fuse, s)
		var bar *simmach.Barrier
		if join != joinNone {
			bar = mm.sim.NewBarrier(ncores, mm.barrierCost(g.nodes, ncores))
		}
		chunkCells := float64(cells[s]) / float64(p.ksteps) / float64(g.nblocks) / float64(ncores)
		memShare := overlapped * float64(st.Flops) / totalFlopsPerCell / float64(ncores)
		for ci, c := range g.cores {
			node := m.CoreNode(c)
			if bar != nil {
				// Halo pulls from the j-neighbours' caches stall the
				// consumer before it can compute: demand misses on another
				// cache's fresh output are not prefetchable.
				haloItem := simmach.Item{Tag: fmt.Sprintf("isl%d.halo.g%d", g.island, s)}
				if ci > 0 {
					from := m.CoreNode(g.cores[ci-1])
					haloItem.Flows = append(haloItem.Flows, mm.c2cFlow(from, node, halo.jLo*colBytes))
				}
				if ci+1 < ncores {
					from := m.CoreNode(g.cores[ci+1])
					haloItem.Flows = append(haloItem.Flows, mm.c2cFlow(from, node, halo.jHi*colBytes))
				}
				procs[c].Add(haloItem)
			}
			item := simmach.Item{Tag: fmt.Sprintf("isl%d.stage%d", g.island, s)}
			item.Flows = append(item.Flows, simmach.Flow{
				Demand:    chunkCells * float64(st.Flops),
				Resources: []int{mm.coreRes[c]},
			})
			for _, h := range homes {
				item.Flows = append(item.Flows, mm.readFlow(node, h, memShare*share))
			}
			procs[c].Add(item)
			if bar != nil {
				procs[c].Add(simmach.Item{Tag: "stagebar", Barrier: bar})
			}
		}
	}
}

func domainBytes(d grid.Size) float64 {
	return float64(d.Cells()) * grid.CellBytes
}

// linkBytes sums the traffic carried by all link resources in a run.
func linkBytes(mm *machModel, r *simmach.Result) float64 {
	var b float64
	for _, pair := range mm.linkRes {
		b += r.ResourceUnits[pair[0]] + r.ResourceUnits[pair[1]]
	}
	return b
}

// fillCounters records the per-node and per-link traffic of a simulated
// step, scaled to the whole run.
func fillCounters(res *ModelResult, mm *machModel, simRes *simmach.Result, scale float64) {
	res.NodeMemBytes = make([]float64, len(mm.memRes))
	for n, rid := range mm.memRes {
		res.NodeMemBytes[n] = simRes.ResourceUnits[rid] * scale
	}
	res.LinkBytes = make([]float64, len(mm.linkRes))
	for l, pair := range mm.linkRes {
		res.LinkBytes[l] = (simRes.ResourceUnits[pair[0]] + simRes.ResourceUnits[pair[1]]) * scale
	}
}
