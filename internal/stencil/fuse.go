package stencil

import (
	"fmt"

	"islands/internal/grid"
)

// This file implements the stage-fusion planner: given a (topologically
// ordered) heterogeneous stencil program, it computes the transitive
// dependency relation over stages and greedily groups consecutive stages
// with no producer->consumer edge between them into fused groups. A fused
// group executes as ONE phase of the compiled schedule — one sweep over the
// block, one interior/border split, one phase barrier — instead of one phase
// per stage. For MPDATA's 17-stage program the planner finds 7 groups
// ({f1,f2,f3}, {psiStar}, {psiMax,psiMin,v1,v2,v3}, {fluxIn,fluxOut},
// {betaUp,betaDn}, {g1,g2,g3}, {psiNew}), cutting per-block phase barriers
// 17 -> 7 and letting sibling stages share their input streams (psi, psi*,
// h are loaded once per fused row instead of once per member stage).

// FusedGroup is one phase of a fused execution: a run of consecutive,
// mutually independent stages executed in a single sweep.
type FusedGroup struct {
	// Stages lists the member stage indices, ascending and consecutive.
	Stages []int
	// Ext is the merged input extent over the members — the interior-split
	// boundary width of the group's shared sweep. It is the component-wise
	// maximum of the members' InputsExtent, so the group interior is a
	// region where every member's reads stay in-domain.
	Ext Extent
	// Flops is the summed per-cell flop count of the members.
	Flops int
}

// FusionPlan is the result of the stage-fusion analysis.
type FusionPlan struct {
	Program *Program
	// Groups partitions the program's stages into consecutive runs of
	// mutually independent stages, in execution order.
	Groups []FusedGroup
	// deps[s] marks the stages s transitively depends on (reads, directly
	// or through intermediate stages).
	deps [][]bool
}

// DependsOn reports whether stage consumer transitively depends on stage
// producer (i.e. reads its output, possibly through intermediate stages).
func (fp *FusionPlan) DependsOn(consumer, producer int) bool {
	return fp.deps[consumer][producer]
}

// GroupOf returns the index of the group containing stage s.
func (fp *FusionPlan) GroupOf(s int) int {
	for gi := range fp.Groups {
		for _, m := range fp.Groups[gi].Stages {
			if m == s {
				return gi
			}
		}
	}
	return -1
}

// PlanFusion computes the fusion plan of a program: the transitive stage
// dependency relation and the greedy grouping of consecutive independent
// stages. The grouping is maximal-greedy in program order: each stage joins
// the current group unless it depends (transitively) on a member, in which
// case it starts a new group. Because groups are consecutive runs, every
// dependency path between two members would have to pass through the group
// itself, so the transitive check also guards against indirect edges.
func PlanFusion(p *Program) (*FusionPlan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := len(p.Stages)
	fp := &FusionPlan{Program: p, deps: make([][]bool, n)}
	for s := range p.Stages {
		fp.deps[s] = make([]bool, n)
		for _, in := range p.Stages[s].Inputs {
			pi := p.StageIndex(in.From)
			if pi < 0 {
				continue // step input
			}
			fp.deps[s][pi] = true
			for t, d := range fp.deps[pi] {
				if d {
					fp.deps[s][t] = true
				}
			}
		}
	}
	start := 0
	for s := 1; s <= n; s++ {
		split := s == n
		if !split {
			for m := start; m < s; m++ {
				if fp.deps[s][m] {
					split = true
					break
				}
			}
		}
		if split {
			fp.Groups = append(fp.Groups, fp.buildGroup(start, s))
			start = s
		}
	}
	return fp, nil
}

// SingletonFusion returns the degenerate plan with one group per stage —
// the unfused execution shape, used as the fusion ablation baseline.
func SingletonFusion(p *Program) *FusionPlan {
	fp := &FusionPlan{Program: p, deps: make([][]bool, len(p.Stages))}
	for s := range p.Stages {
		fp.deps[s] = make([]bool, len(p.Stages))
		for _, in := range p.Stages[s].Inputs {
			if pi := p.StageIndex(in.From); pi >= 0 {
				fp.deps[s][pi] = true
				for t, d := range fp.deps[pi] {
					if d {
						fp.deps[s][t] = true
					}
				}
			}
		}
		fp.Groups = append(fp.Groups, fp.buildGroup(s, s+1))
	}
	return fp
}

// buildGroup assembles the group of stages [lo, hi).
func (fp *FusionPlan) buildGroup(lo, hi int) FusedGroup {
	g := FusedGroup{}
	for s := lo; s < hi; s++ {
		g.Stages = append(g.Stages, s)
		g.Ext = g.Ext.Max(InputsExtent(fp.Program.Stages[s].Inputs))
		g.Flops += fp.Program.Stages[s].Flops
	}
	return g
}

// GroupInputs returns the distinct producers the group's members read,
// deduplicated by name with component-wise-maximum extents — the shared
// input streams a fused sweep loads once instead of once per member.
func (fp *FusionPlan) GroupInputs(gi int) map[string]Extent {
	out := make(map[string]Extent)
	for _, s := range fp.Groups[gi].Stages {
		for _, in := range fp.Program.Stages[s].Inputs {
			e := OffsetsExtent(in.Offsets)
			if prev, ok := out[in.From]; ok {
				e = e.Max(prev)
			}
			out[in.From] = e
		}
	}
	return out
}

// Validate checks the structural invariants of a fusion plan: the groups
// partition the stages into consecutive runs, and no group contains a
// dependent pair. Tests use it to cross-check the planner.
func (fp *FusionPlan) Validate() error {
	next := 0
	for gi, g := range fp.Groups {
		if len(g.Stages) == 0 {
			return fmt.Errorf("stencil: fusion group %d is empty", gi)
		}
		for _, s := range g.Stages {
			if s != next {
				return fmt.Errorf("stencil: fusion group %d is not consecutive at stage %d", gi, s)
			}
			next++
		}
		for _, a := range g.Stages {
			for _, b := range g.Stages {
				if a != b && fp.deps[b][a] {
					return fmt.Errorf("stencil: fusion group %d contains dependent stages %q -> %q",
						gi, fp.Program.Stages[a].Name, fp.Program.Stages[b].Name)
				}
			}
		}
	}
	if next != len(fp.Program.Stages) {
		return fmt.Errorf("stencil: fusion plan covers %d of %d stages", next, len(fp.Program.Stages))
	}
	return nil
}

// GroupExec is the executable form of one fused group. Fast computes every
// split-path member over a region in fast-path (flat stride) indexing — it
// is valid on group-interior regions and on pinned border pieces bound via
// Env.BindPiece, exactly like a per-stage fast kernel. Members without a
// split kernel form are listed in Generic and must run their combined
// kernels over their full regions within the group's phase.
type GroupExec struct {
	// Fast runs the hand-fused row kernels (where registered) and the
	// remaining members' individual fast paths in one call; nil when the
	// group has no split-path member.
	Fast Kernel
	// FastMembers lists the stage indices Fast computes, ascending.
	FastMembers []int
	// Rows reports that Fast is row-capable (see Kernel): every kernel it
	// chains is.
	Rows bool
	// Generic lists members with no fast/slow split form.
	Generic []int
}

// CompileGroups builds one GroupExec per fused group. Hand-written kernels
// registered on the program (KernelProgram.Fused) are matched greedily:
// a registered kernel applies when all its member stages fall into the same
// group and none has been claimed by an earlier registration; unmatched
// members fall back to their individual fast paths. A group served by a
// single kernel gets that kernel as its Fast, unwrapped.
func (fp *FusionPlan) CompileGroups(kp *KernelProgram) ([]GroupExec, error) {
	if &kp.Program != fp.Program {
		// Accept value-identical programs too (tests build both).
		if kp.Program.Name != fp.Program.Name || len(kp.Stages) != len(fp.Program.Stages) {
			return nil, fmt.Errorf("stencil: fusion plan is for program %q, not %q", fp.Program.Name, kp.Name)
		}
	}
	out := make([]GroupExec, len(fp.Groups))
	for gi, g := range fp.Groups {
		ge := &out[gi]
		unclaimed := make(map[int]bool)
		for _, s := range g.Stages {
			if _, _, ok := kp.SplitPaths(s); ok {
				unclaimed[s] = true
			} else {
				ge.Generic = append(ge.Generic, s)
			}
		}
		var parts []Kernel
		rows := true
		for fi := range kp.Fused {
			fk := &kp.Fused[fi]
			idxs := make([]int, 0, len(fk.Stages))
			ok := true
			for _, name := range fk.Stages {
				s := kp.StageIndex(name)
				if s < 0 || !unclaimed[s] {
					ok = false
					break
				}
				idxs = append(idxs, s)
			}
			if !ok {
				continue
			}
			for _, s := range idxs {
				delete(unclaimed, s)
				ge.FastMembers = append(ge.FastMembers, s)
			}
			parts = append(parts, fk.Fast)
			rows = rows && fk.Rows
		}
		for _, s := range g.Stages {
			if unclaimed[s] {
				parts = append(parts, kp.FastKernels[s])
				rows = rows && kp.RowCapable(s)
				ge.FastMembers = append(ge.FastMembers, s)
			}
		}
		sortInts(ge.FastMembers)
		switch ps := parts; len(ps) {
		case 0:
		case 1:
			ge.Fast, ge.Rows = ps[0], rows
		default:
			ge.Rows = rows
			ge.Fast = func(env *Env, r grid.Region) {
				for _, p := range ps {
					p(env, r)
				}
			}
		}
	}
	return out, nil
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
