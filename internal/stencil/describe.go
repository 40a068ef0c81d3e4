package stencil

import (
	"fmt"
	"strings"
)

// Describe renders a text table of the program: one row per stage with its
// inputs, read extents, flop count, and — when an analysis is supplied —
// the halo extent relative to the program output.
func (p *Program) Describe(h *HaloAnalysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s: %d step inputs, %d stages, %d flops/cell/step\n",
		p.Name, len(p.StepInputs), len(p.Stages), p.TotalFlopsPerCellStep())
	fmt.Fprintf(&b, "inputs: %s\n", strings.Join(p.StepInputs, ", "))
	for i := range p.Stages {
		st := &p.Stages[i]
		var reads []string
		for _, in := range st.Inputs {
			e := OffsetsExtent(in.Offsets)
			if e.IsZero() {
				reads = append(reads, in.From)
			} else {
				reads = append(reads, fmt.Sprintf("%s{%s}", in.From, e))
			}
		}
		fmt.Fprintf(&b, "  %2d. %-10s %3d flops  reads %s\n", i+1, st.Name, st.Flops, strings.Join(reads, ", "))
		if h != nil {
			if ext := h.StageExtents[i]; !ext.IsZero() {
				fmt.Fprintf(&b, "      halo vs output: %s\n", ext)
			}
		}
	}
	if h != nil {
		b.WriteString("step-input halos (what an island must load beyond its part):\n")
		for _, in := range p.StepInputs {
			if e, ok := h.InputExtents[in]; ok {
				fmt.Fprintf(&b, "  %-6s %s\n", in, e)
			}
		}
	}
	return b.String()
}
