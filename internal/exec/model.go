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

// stageInputHalo sums, over a stage's inputs, the per-side halo columns read
// beyond the computed region, as byte multipliers per (column of the given
// cross-section area).
type sideHalo struct {
	iLo, iHi, jLo, jHi float64 // summed over input arrays, in columns
}

func stageHalo(st *stencil.Stage) sideHalo {
	var h sideHalo
	for _, in := range st.Inputs {
		e := stencil.OffsetsExtent(in.Offsets)
		h.iLo += float64(e.ILo)
		h.iHi += float64(e.IHi)
		h.jLo += float64(e.JLo)
		h.jHi += float64(e.JHi)
	}
	return h
}

// groupHalo sums the per-side halo columns of one fused group's sweep: the
// group's distinct inputs, each counted once at its merged (maximum) extent
// — a fused sweep pulls each shared input's halo once, not once per member.
// For singleton groups over stages that read each producer once (every
// MPDATA stage) it equals stageHalo.
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

// modelFusion returns the phase grouping the model prices: per-stage
// (singleton) groups by default — the paper's per-stage execution, keeping
// Tables 1-4 reproducing — or the plan's fused groups when the
// Params.FuseStages ablation knob is set.
func (p *plan) modelFusion() *stencil.FusionPlan {
	if p.params().FuseStages {
		return p.fuse
	}
	return stencil.SingletonFusion(p.prog)
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
	var err error
	p.trace = trace
	res := &ModelResult{
		Config:      cfg,
		Domain:      domain,
		UsefulFlops: UsefulFlopsPerStep(prog, domain) * float64(cfg.Steps),
	}
	// Redundancy accounting (exact, from the halo analysis): the spans
	// tile each island's stage regions, so cells beyond the island's own
	// part are the trapezoid recomputation. With core-level sub-islands,
	// the per-worker j-trapezoids add another exact layer; with temporal
	// blocking the per-step count averages the widening trapezoids over a
	// k-block's inner steps (equal to the plain count at k=1).
	var redundantFlops, redundantCells float64
	for i := range p.parts {
		for s := range prog.Stages {
			cells := p.islandCellsAvg(i, s)
			if cfg.CoreIslands {
				cells = p.coreIslandCellsAvg(i, s, cfg.Machine.Nodes[i].Cores)
			}
			extra := cells - float64(p.parts[i].Cells())
			redundantCells += extra
			redundantFlops += extra * float64(prog.Stages[s].Flops)
		}
	}
	res.RedundantFlops = redundantFlops * float64(cfg.Steps)
	res.ExtraElementsPct = 100 * redundantCells / (float64(len(prog.Stages)) * float64(domain.Cells()))

	switch cfg.Strategy {
	case Original:
		err = modelOriginal(p, res)
	case Plus31D, IslandsOfCores:
		err = modelBlocked(p, res)
	}
	if err != nil {
		return nil, err
	}
	res.TotalTime = res.StepTime * float64(cfg.Steps)
	return res, nil
}

// modelOriginal simulates one full stage-by-stage step: every core sweeps
// its chunk of every stage, streaming all stage inputs from and the output
// to main memory at the pages' home nodes.
func modelOriginal(p *plan, res *ModelResult) error {
	cfg := p.cfg
	m := cfg.Machine
	mm := newMachModel(m, p.params())
	if p.trace {
		mm.sim.EnableTrace()
	}
	cores := m.TotalCores()
	nodes := m.NumNodes()

	// Parallel first-touch follows the compute loops: pages are homed on
	// the node of the core whose chunk initializes (and later sweeps)
	// them, so the owner map is derived from the same per-core split the
	// stages use — not from a coarse per-node split.
	coreChunks := decomp.SplitDim(grid.WholeRegion(p.domain), 0, cores)
	iToNode := make([]int, p.domain.NI)
	for c, chunk := range coreChunks {
		for i := chunk.I0; i < chunk.I1; i++ {
			iToNode[i] = m.CoreNode(c)
		}
	}
	rowCells := p.domain.NJ * p.domain.NK
	placement := grid.NewPlacement(p.domain, cfg.Placement, nodes, func(cell int) int {
		return iToNode[cell/rowCells]
	})

	procs := make([]*simmach.Proc, cores)
	for c := range procs {
		procs[c] = mm.sim.AddProc(fmt.Sprintf("core%d", c))
	}
	rowBytes := float64(p.domain.NJ) * float64(p.domain.NK) * grid.CellBytes

	// One simulated phase per fused group (per stage by default; merged
	// with Params.FuseStages): members share their distinct input streams
	// and halo pulls, and the whole group meets at one barrier.
	fuse := p.modelFusion()
	var remoteHalo float64
	for gi := range fuse.Groups {
		g := &fuse.Groups[gi]
		// The same per-core chunks the compiled compute schedule executes.
		chunks := make([][]grid.Region, len(g.Stages))
		for mi, s := range g.Stages {
			chunks[mi] = p.stageChunks(0, s, 0, 0, cores)
		}
		bar := mm.sim.NewBarrier(cores, mm.barrierCost(allNodes(nodes), cores))
		halo := groupHalo(fuse, gi)
		nInputs := float64(len(fuse.GroupInputs(gi)))
		for c := 0; c < cores; c++ {
			node := m.CoreNode(c)
			for mi, s := range g.Stages {
				st := &p.prog.Stages[s]
				item := simmach.Item{Tag: fmt.Sprintf("stage%d", s)}
				chunk := chunks[mi][c]
				if !chunk.Empty() {
					cells := float64(chunk.Cells())
					item.Flows = append(item.Flows, simmach.Flow{
						Demand:    cells * float64(st.Flops),
						Resources: []int{mm.coreRes[c]},
					})
					// Reads and the output write, split by page home. The
					// group's distinct inputs are streamed once per fused
					// sweep, carried by the first member's item; every
					// member writes its own output.
					perNode := placement.RegionBytesPerNode(chunk)
					for h, b := range perNode {
						if b == 0 {
							continue
						}
						if mi == 0 {
							item.Flows = append(item.Flows,
								mm.readFlow(node, h, float64(b)*nInputs))
						}
						item.Flows = append(item.Flows, mm.writeFlows(node, h, float64(b))...)
					}
					// Halo reads at chunk edges crossing node boundaries:
					// in the original version the producer's output lives
					// in main memory, so these are memory streams from
					// wherever the placement homed the halo rows. The
					// group's merged halo is pulled once, with the shared
					// input streams.
					if mi == 0 {
						if chunk.I0 > 0 && c > 0 && m.CoreNode(c-1) != node {
							home := placement.NodeOfCell((chunk.I0 - 1) * rowCells)
							if home != node {
								b := halo.iLo * rowBytes
								item.Flows = append(item.Flows, mm.readFlow(node, home, b))
								remoteHalo += b
							}
						}
						if chunk.I1 < p.domain.NI && c+1 < cores && m.CoreNode(c+1) != node {
							home := placement.NodeOfCell(chunk.I1 * rowCells)
							if home != node {
								b := halo.iHi * rowBytes
								item.Flows = append(item.Flows, mm.readFlow(node, home, b))
								remoteHalo += b
							}
						}
					}
				}
				procs[c].Add(item)
			}
			procs[c].Add(simmach.Item{Tag: "barrier", Barrier: bar})
		}
	}

	simRes, err := mm.sim.Run()
	if err != nil {
		return err
	}
	res.sim, res.simRes = mm.sim, simRes
	res.StepTime = simRes.Makespan
	res.MemTrafficBytes = float64(OriginalTraversals(p.prog)) * domainBytes(p.domain) * float64(cfg.Steps)
	res.RemoteTrafficBytes = linkBytes(mm, simRes) * float64(cfg.Steps)
	fillCounters(res, mm, simRes, float64(cfg.Steps))
	return nil
}

// modelBlocked simulates one representative (3+1)D block per island and
// scales by the island's block count; Plus31D is the degenerate case of a
// single island spanning the machine.
func modelBlocked(p *plan, res *ModelResult) error {
	cfg := p.cfg
	m := cfg.Machine
	mm := newMachModel(m, p.params())
	if p.trace {
		mm.sim.EnableTrace()
	}
	nodes := m.NumNodes()

	// Per-island core sets.
	type island struct {
		id      int
		cores   []int
		nodeSet []int
		nblocks int
	}
	var islands []island
	switch cfg.Strategy {
	case Plus31D:
		all := make([]int, m.TotalCores())
		for c := range all {
			all[c] = c
		}
		islands = []island{{id: 0, cores: all, nodeSet: allNodes(nodes), nblocks: len(p.blocks[0])}}
	case IslandsOfCores:
		// coreStart[n] is the first global core id of node n.
		coreStart := make([]int, nodes)
		for n := 1; n < nodes; n++ {
			coreStart[n] = coreStart[n-1] + m.Nodes[n-1].Cores
		}
		for i := range m.Nodes {
			// Island i runs on the node the affinity order assigns —
			// identity preserves neighbour adjacency (§4.2), a
			// permutation models scattered thread placement.
			node := cfg.nodeOf(i)
			var cs []int
			for w := 0; w < m.Nodes[node].Cores; w++ {
				cs = append(cs, coreStart[node]+w)
			}
			islands = append(islands, island{id: i, cores: cs, nodeSet: []int{node}, nblocks: len(p.blocks[i])})
		}
	}

	procs := make([]*simmach.Proc, m.TotalCores())
	for c := range procs {
		procs[c] = mm.sim.AddProc(fmt.Sprintf("core%d", c))
	}

	blockedSweeps := float64(len(p.prog.StepInputs)+1) * mm.par.SpillFactor
	totalFlopsPerCell := float64(p.prog.TotalFlopsPerCellStep())
	for _, isl := range islands {
		part := p.parts[isl.id]
		bmid := isl.nblocks / 2
		blk := p.blocks[isl.id][bmid]

		// Pages of this block, as homed by parallel first-touch under
		// the strategy's own loop structure: the islands strategy
		// touches its part with its own team (all local); the pure
		// (3+1)D strategy touches every block with all cores chunked
		// along j, whose fine interleaving stripes the pages across
		// every node near-uniformly.
		type homeShare struct {
			node  int
			share float64
		}
		var homes []homeShare
		switch {
		case nodes == 1:
			homes = []homeShare{{0, 1}}
		case cfg.Strategy == IslandsOfCores:
			switch cfg.Placement {
			case grid.FirstTouchSerial:
				// Pathological: every island's data on node 0.
				homes = []homeShare{{0, 1}}
			case grid.Interleaved:
				for n := 0; n < nodes; n++ {
					homes = append(homes, homeShare{n, 1 / float64(nodes)})
				}
			default:
				// Parallel first-touch: each island initializes and
				// owns its part, whatever the partition dimension.
				homes = []homeShare{{cfg.nodeOf(isl.id), 1}}
			}
		default:
			// Pure (3+1)D touches every block with all cores chunked
			// along j; the fine interleave stripes pages everywhere.
			for n := 0; n < nodes; n++ {
				homes = append(homes, homeShare{n, 1 / float64(nodes)})
			}
		}

		// Memory traffic of one block: the compulsory sweeps plus
		// spills, split into a serial fill and an overlapped stream.
		partBytes := float64(part.Cells()) * grid.CellBytes
		blockBytes := blockedSweeps * partBytes / float64(isl.nblocks)
		serial := mm.par.MemSerialFraction * blockBytes
		overlapped := blockBytes - serial

		// Remote halo of the step inputs at island boundaries (cells of
		// neighbouring islands' first-touch pages each input must be
		// read on, exact from the halo analysis), amortized per block.
		var inputHalo float64
		if cfg.Strategy == IslandsOfCores && nodes > 1 {
			for name := range p.analysis.InputExtents {
				r := p.analysis.InputRegion(name, part, p.domain)
				inputHalo += float64(r.Cells()-part.Cells()) * grid.CellBytes
			}
			inputHalo /= float64(isl.nblocks)
		}

		ncores := len(isl.cores)
		// Serial fill item: the start-of-block reads the prefetchers
		// cannot hide, shared across the island's cores.
		for _, c := range isl.cores {
			fill := simmach.Item{Tag: "fill"}
			for _, h := range homes {
				fill.Flows = append(fill.Flows,
					mm.readFlow(m.CoreNode(c), h.node, serial*h.share/float64(ncores)))
			}
			if inputHalo > 0 {
				// The halo lives on the neighbouring island's node:
				// under adjacency-preserving affinity that node is one
				// hop away; under scattered affinity it can be across
				// the machine (or the cluster).
				neighbor := cfg.nodeOf((isl.id + 1) % nodes)
				fill.Flows = append(fill.Flows, mm.readFlow(m.CoreNode(c), neighbor, inputHalo/float64(ncores)))
			}
			procs[c].Add(fill)
		}

		// One phase per fused group (per stage by default; merged with
		// Params.FuseStages): the group's halo pulls are merged over its
		// distinct inputs and paid once, and one per-group barrier joins
		// the team instead of one per stage.
		fuse := p.modelFusion()
		// Chunk geometry for halo sizing: the block's i-width times NK
		// columns.
		iWidth := float64(blk.I1 - blk.I0)
		colBytes := iWidth * float64(p.domain.NK) * grid.CellBytes
		for gi := range fuse.Groups {
			g := &fuse.Groups[gi]
			halo := groupHalo(fuse, gi)
			var bar *simmach.Barrier
			if !cfg.CoreIslands {
				bar = mm.sim.NewBarrier(ncores, mm.barrierCost(isl.nodeSet, ncores))
			}
			for ci, c := range isl.cores {
				node := m.CoreNode(c)
				if !cfg.CoreIslands {
					// Halo pulls from the j-neighbours' caches stall the
					// consumer before it can compute: demand misses on
					// another cache's fresh output are not prefetchable.
					// One merged pull per group sweep.
					haloItem := simmach.Item{Tag: fmt.Sprintf("isl%d.halo.g%d", isl.id, gi)}
					if ci > 0 {
						from := m.CoreNode(isl.cores[ci-1])
						haloItem.Flows = append(haloItem.Flows, mm.c2cFlow(from, node, halo.jLo*colBytes))
					}
					if ci+1 < ncores {
						from := m.CoreNode(isl.cores[ci+1])
						haloItem.Flows = append(haloItem.Flows, mm.c2cFlow(from, node, halo.jHi*colBytes))
					}
					procs[c].Add(haloItem)
				}
				for _, s := range g.Stages {
					st := &p.prog.Stages[s]
					// Average stage cells per block for this island
					// (includes the trapezoid redundancy spread over
					// blocks; with core-level sub-islands, also the
					// per-worker j-trapezoids; with temporal blocking,
					// averaged over a k-block's inner steps so the
					// representative block prices the mean inner step).
					islCells := p.islandCellsAvg(isl.id, s)
					if cfg.CoreIslands {
						islCells = p.coreIslandCellsAvg(isl.id, s, ncores)
					}
					chunkCells := islCells / float64(isl.nblocks) / float64(ncores)
					item := simmach.Item{Tag: fmt.Sprintf("isl%d.stage%d", isl.id, s)}
					item.Flows = append(item.Flows, simmach.Flow{
						Demand:    chunkCells * float64(st.Flops),
						Resources: []int{mm.coreRes[c]},
					})
					// Overlapped memory, apportioned to stages by their
					// share of the block's compute so streaming hides
					// evenly under arithmetic.
					memShare := overlapped * float64(st.Flops) / totalFlopsPerCell / float64(ncores)
					for _, h := range homes {
						item.Flows = append(item.Flows, mm.readFlow(node, h.node, memShare*h.share))
					}
					procs[c].Add(item)
				}
				if !cfg.CoreIslands {
					procs[c].Add(simmach.Item{Tag: "stagebar", Barrier: bar})
				}
			}
		}
	}

	simRes, err := mm.sim.Run()
	if err != nil {
		return err
	}

	res.sim, res.simRes = mm.sim, simRes
	// Step time: each island repeats its representative block nblocks
	// times; the step ends at the slowest island plus one global barrier.
	var stepTime float64
	for _, isl := range islands {
		var blockTime float64
		for _, c := range isl.cores {
			if t := simRes.ProcEnd[c]; t > blockTime {
				blockTime = t
			}
		}
		t := blockTime * float64(isl.nblocks)
		if t > stepTime {
			stepTime = t
		}
	}
	if p.ksteps > 1 {
		// Temporal blocking: the machine-wide join is paid once per
		// k-block, and each of the k-1 inner-step transitions costs one
		// island-local barrier crossing — the private feedback swap rides
		// the release of the end-of-step team barrier (Barrier.WaitDo), so
		// there is no second crossing (and none at all for core-level
		// sub-islands, which swap unsynchronized). The per-step
		// synchronization cost is the per-block cost over k — the barrier
		// saving the advisor trades against the widened trapezoids'
		// redundant compute priced above.
		var swapBar float64
		if !cfg.CoreIslands {
			for _, isl := range islands {
				if b := mm.barrierCost(isl.nodeSet, len(isl.cores)); b > swapBar {
					swapBar = b
				}
			}
		}
		k := float64(p.ksteps)
		stepTime += (mm.barrierCost(allNodes(nodes), m.TotalCores()) + (k-1)*swapBar) / k
	} else {
		stepTime += mm.barrierCost(allNodes(nodes), m.TotalCores())
	}
	res.StepTime = stepTime

	res.MemTrafficBytes = blockedSweeps * domainBytes(p.domain) * float64(cfg.Steps)
	// Remote traffic scales with each island's block count; approximate
	// with the max block count (they differ by at most one).
	maxBlocks := 0
	for _, isl := range islands {
		if isl.nblocks > maxBlocks {
			maxBlocks = isl.nblocks
		}
	}
	res.RemoteTrafficBytes = linkBytes(mm, simRes) * float64(maxBlocks) * float64(cfg.Steps)
	fillCounters(res, mm, simRes, float64(maxBlocks)*float64(cfg.Steps))
	return nil
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
