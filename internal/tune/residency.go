package tune

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// This file is the tuner's out-of-core arm: when a job's domain does not
// fit its memory budget, PickResidency chooses the streaming residency —
// tile width times temporal-blocking factor k — that the machine model
// prices fastest (exec.StreamCost), trading the k-step halo's redundant
// loads and compute against the sweep count the disk must amortize.

// Residency is the streaming decision for one class under a memory budget.
type Residency struct {
	// Resident reports that the whole domain fits the budget and the job
	// should run the ordinary in-memory path (TilePlanes and K then
	// describe the degenerate single-tile plan: the whole domain, the whole
	// run).
	Resident   bool
	TilePlanes int
	K          int
	// Label names the choice advisor-style, e.g. "stream w48k4".
	Label string
	// Cost is the winning candidate's modeled cost breakdown and plan (nil
	// when Resident).
	Cost *exec.StreamCostResult
}

// residencyKs is the temporal-blocking ladder PickResidency tries. Larger k
// cuts the sweep count (less disk traffic per step) at the price of wider
// halos; past the ladder the halo growth dominates for any realistic disk.
var residencyKs = []int{1, 2, 4, 8}

// PickResidency chooses the residency minimizing modeled wall time under
// budgetBytes, for the class run at the given knobs over steps time steps.
// m is the machine that runs the tile engines: the footprint is priced on
// it, since the engines' environments follow its cores. The time model
// prices on the class's machine (Class.Machine), as every other tuner
// surface does. diskBW <= 0 assumes exec.DefaultDiskBWBytes. For each k on
// the ladder it binary-searches the widest tile whose plan exists (under a
// periodic i-boundary the k-step halo must fit beside it in the ring) and
// whose footprint fits the budget (both hold up to some width), prices that
// width and its half (the halo/IO trade is not perfectly monotone), and
// keeps the fastest. It errors when even a one-plane tile exceeds the
// budget.
func PickResidency(m *topology.Machine, prog *stencil.Program, class Class, knobs Knobs, steps int, budgetBytes int64, diskBW float64) (*Residency, error) {
	if budgetBytes <= 0 {
		return nil, fmt.Errorf("tune: residency: budget must be positive, got %d", budgetBytes)
	}
	model, err := class.Machine()
	if err != nil {
		return nil, err
	}
	cfg := ApplyKnobs(class.BaseConfig(model), knobs)
	run := ApplyKnobs(class.BaseConfig(m), knobs)
	domain := class.Domain
	budget := float64(budgetBytes)

	// One analysis serves every plan of the search and every plan priced.
	an, err := stencil.Analyze(prog)
	if err != nil {
		return nil, err
	}
	fext, err := exec.StreamHalo(prog, an)
	if err != nil {
		return nil, err
	}
	plan := func(w, k int) (*exec.StreamPlan, error) {
		return exec.NewStreamPlan(domain, steps, exec.StreamChoice{TilePlanes: w, K: k}, fext, class.Boundary)
	}

	// Whole domain resident? Then streaming is pure overhead.
	whole, err := plan(domain.NI, steps)
	if err != nil {
		return nil, err
	}
	if whole.ResidentBytes(run, prog) <= budget {
		return &Residency{
			Resident: true, TilePlanes: whole.TilePlanes, K: whole.K,
			Label: "resident",
		}, nil
	}

	var best *Residency
	var lastErr error
	for _, k := range residencyKs {
		if k > steps {
			continue
		}
		fits := func(w int) bool {
			p, err := plan(w, k)
			return err == nil && p.ResidentBytes(run, prog) <= budget
		}
		if _, err := plan(1, k); err != nil {
			lastErr = err
			continue
		}
		if !fits(1) {
			lastErr = fmt.Errorf("tune: residency: a one-plane tile at k=%d needs more than the %d-byte budget", k, budgetBytes)
			continue
		}
		// Binary search the widest tile fitting the budget.
		lo, hi := 1, domain.NI-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if fits(mid) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		widths := []int{lo}
		if half := lo / 2; half >= 1 && half != lo {
			widths = append(widths, half)
		}
		for _, w := range widths {
			p, err := plan(w, k)
			if err != nil {
				lastErr = err
				continue
			}
			cost, err := exec.StreamCost(cfg, prog, an, p, diskBW)
			if err != nil {
				lastErr = err
				continue
			}
			if best == nil || cost.TotalSec < best.Cost.TotalSec {
				best = &Residency{
					TilePlanes: p.TilePlanes,
					K:          p.K,
					Label:      fmt.Sprintf("stream w%dk%d", p.TilePlanes, p.K),
					Cost:       cost,
				}
			}
		}
	}
	if best == nil {
		if lastErr != nil {
			return nil, lastErr
		}
		return nil, fmt.Errorf("tune: residency: no feasible streaming plan under %d bytes", budgetBytes)
	}
	return best, nil
}

// ResidentBytes prices the footprint of one residency — tilePlanes owned
// planes advanced k steps a visit over a steps-step run — as PickResidency
// prices its candidates: on the machine m that runs the tile engines, under
// the class's configuration at knobs. A resumed store keeps the residency it
// recorded; this is what checks it against the resuming job's budget.
func ResidentBytes(m *topology.Machine, prog *stencil.Program, class Class, knobs Knobs, steps, tilePlanes, k int) (float64, error) {
	an, err := stencil.Analyze(prog)
	if err != nil {
		return 0, err
	}
	fext, err := exec.StreamHalo(prog, an)
	if err != nil {
		return 0, err
	}
	p, err := exec.NewStreamPlan(class.Domain, steps, exec.StreamChoice{TilePlanes: tilePlanes, K: k}, fext, class.Boundary)
	if err != nil {
		return 0, err
	}
	return p.ResidentBytes(ApplyKnobs(class.BaseConfig(m), knobs), prog), nil
}
