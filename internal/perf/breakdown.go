package perf

import (
	"fmt"
	"sort"
	"strings"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// BreakdownTable attributes each strategy's modeled core-time to activity
// categories (serial fills, stage compute+stream, halo stalls, barrier
// waits) from the traced machine run — the quantitative version of the
// paper's §5 explanation for why pure (3+1)D collapses: its time goes to
// synchronization and remote cache pulls, not arithmetic.
func BreakdownTable(prog *stencil.Program, domain grid.Size, p, steps int) (*Table, error) {
	m, err := topology.UV2000(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Core-time breakdown [%%] at P=%d, %v (traced machine model)",
			p, domain),
		ColHead: "strategy",
		Cols:    []string{"compute+mem", "halo", "barrier", "fill"},
	}
	for _, strat := range []exec.Strategy{exec.Original, exec.Plus31D, exec.IslandsOfCores} {
		res, _, err := exec.ModelTrace(exec.Config{
			Machine: m, Strategy: strat, Placement: grid.FirstTouchParallel,
			Variant: decomp.VariantA, Steps: steps,
		}, prog, domain, 1)
		if err != nil {
			return nil, err
		}
		shares := CategorizeTagTimes(res.TagTimes())
		t.AddRow(strat.String(), "%.1f", []float64{
			shares["compute"], shares["halo"], shares["barrier"], shares["fill"],
		})
	}
	return t, nil
}

// CategorizeTagTimes folds the simulator's per-tag busy times into the four
// activity categories and normalizes them to percentages. Tags are summed in
// sorted order, so the shares are the same to the last bit on every run.
func CategorizeTagTimes(tags map[string]float64) map[string]float64 {
	out := map[string]float64{"compute": 0, "halo": 0, "barrier": 0, "fill": 0}
	names := make([]string, 0, len(tags))
	for tag := range tags {
		names = append(names, tag)
	}
	sort.Strings(names)
	var total float64
	for _, tag := range names {
		tm := tags[tag]
		total += tm
		switch {
		case strings.Contains(tag, "halo"):
			out["halo"] += tm
		case strings.Contains(tag, "bar"):
			out["barrier"] += tm
		case strings.Contains(tag, "fill"):
			out["fill"] += tm
		default:
			out["compute"] += tm
		}
	}
	if total > 0 {
		for k := range out {
			out[k] *= 100 / total
		}
	}
	return out
}
