package exec

import (
	"fmt"
	"strings"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// DescribePlan renders the execution geometry of a configuration: the island
// partition, the (3+1)D block decomposition, and the redundancy each island
// takes on — what the paper's scheduler decides before the first time step.
func DescribePlan(cfg Config, prog *stencil.Program, domain grid.Size) (string, error) {
	p, err := newPlan(cfg, prog, domain)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %v on %s, domain %v, %d steps\n",
		cfg.Strategy, cfg.Machine.Name, domain, cfg.Steps)
	groups := len(p.fuse.Groups)
	switch cfg.Strategy {
	case Original:
		fmt.Fprintf(&b, "  no blocking: %d stages in %d fused phases sweep the whole domain, %d cores each\n",
			len(prog.Stages), groups, cfg.Machine.TotalCores())
	case Plus31D:
		blocks := p.blocks[0]
		fmt.Fprintf(&b, "  %d cache blocks of %d i-columns, all %d cores per block, %d stages in %d fused phases, %d phase barriers per step\n",
			len(blocks), blocks[0].I1-blocks[0].I0, cfg.Machine.TotalCores(), len(prog.Stages), groups, groups*len(blocks))
	case IslandsOfCores:
		fmt.Fprintf(&b, "  %d stages in %d fused phases per block\n", len(prog.Stages), groups)
		if p.ksteps > 1 {
			fmt.Fprintf(&b, "  temporal blocking: %d inner steps per global join (k-step halo %v)\n",
				p.ksteps, p.fext.Scale(p.ksteps))
		} else if p.kstepReason != "" {
			fmt.Fprintf(&b, "  temporal blocking: requested ksteps=%d fell back to 1 (%s)\n",
				cfg.KSteps, p.kstepReason)
		}
		totalExtra := 0.0
		for i, part := range p.parts {
			var extra float64
			for s := range prog.Stages {
				cells := p.islandCellsAvg(i, s)
				if cfg.CoreIslands {
					cells = p.coreIslandCellsAvg(i, s, cfg.Machine.Nodes[i].Cores)
				}
				extra += cells - float64(part.Cells())
			}
			totalExtra += extra
			fmt.Fprintf(&b, "  island %2d on node %2d: part %v, %d blocks, %.0f redundant cells/step\n",
				i, cfg.nodeOf(i), part, len(p.blocks[i]), extra)
		}
		pct := 100 * totalExtra / (float64(len(prog.Stages)) * float64(domain.Cells()))
		fmt.Fprintf(&b, "  total redundancy: %.2f%% of baseline stage cells", pct)
		if cfg.CoreIslands {
			fmt.Fprintf(&b, " (including per-core sub-island trapezoids)")
		}
		if p.ksteps > 1 {
			fmt.Fprintf(&b, " (averaged over %d inner steps)", p.ksteps)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// DescribeSchedule renders a runner's compiled one-step execution schedule:
// how many precompiled work items each team walks per step, and how the
// per-stage joins and feedback publication are realized. This is the
// compute-backend counterpart of DescribePlan — what the schedule compiler
// decided once, before the first time step.
func (r *Runner) DescribeSchedule() string {
	var b strings.Builder
	st := r.schedule.Stats()
	fmt.Fprintf(&b, "compiled schedule: %v, %d teams\n", r.plan.cfg.Strategy, len(r.sch.Teams))
	walk := "step"
	if st.KSteps > 1 {
		walk = fmt.Sprintf("%d-step block", st.KSteps)
	}
	for t, team := range r.sch.Teams {
		ts := st.Teams[t]
		fmt.Fprintf(&b, "  team %2d (%d workers): %d kernel items, %d copy items, %d barrier waits per %s",
			team.ID, team.Size(), ts.KernelItems, ts.CopyItems, ts.BarrierWaits, walk)
		if ts.SwapItems > 0 {
			fmt.Fprintf(&b, " (%d inner swaps)", ts.SwapItems)
		}
		b.WriteByte('\n')
	}
	if st.KSteps > 1 {
		fmt.Fprintf(&b, "  temporal block: %d inner steps between global joins, widened halo %d bytes per join",
			st.KSteps, st.HaloBytes)
		if st.RemainderSteps > 0 {
			fmt.Fprintf(&b, ", %d-step remainder block", st.RemainderSteps)
		}
		b.WriteByte('\n')
	} else if st.KStepFallbackReason != "" {
		fmt.Fprintf(&b, "  temporal block: requested ksteps=%d fell back to 1 — %s\n",
			r.plan.cfg.KSteps, st.KStepFallbackReason)
	}
	fmt.Fprintf(&b, "  phases: %s\n", strings.Join(r.schedule.PhaseLabels(), " | "))
	fmt.Fprintf(&b, "  feedback mode: %s", st.Feedback)
	switch {
	case st.Feedback == FeedbackSwapHalo:
		fmt.Fprintf(&b, " — %d halo strips, %d bytes exchanged per %s (%.1f%% of the feedback grid)",
			st.HaloStrips, st.HaloBytes, walk,
			100*float64(st.HaloBytes)/(float64(r.plan.domain.Cells())*grid.CellBytes))
	case st.FallbackReason != "":
		fmt.Fprintf(&b, " — halo fallback: %s", st.FallbackReason)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  %s\n", st)
	return b.String()
}
