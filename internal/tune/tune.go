// Package tune is the per-spec online autotuner that closes the paper's §6
// loop: the machine model predicts, the runtime profiler measures, and the
// tuner decides. For every problem class (domain, socket count, boundary —
// everything a request cannot trade away) it seeds a candidate set from the
// model over the executor's bit-identity-preserving knobs (strategy,
// CoreIslands, BlockI, fusion, placement), measures the promising
// candidates through the real compiled engine, and keeps refining the
// ranking as served jobs report their profiles — with a bounded
// epsilon-greedy re-exploration so the tuner notices when the machine
// disagrees with the model, without spending more than a configured fraction
// of served steps off the best-known configuration.
//
// Tuning is deterministic given Options.Seed: the same decision/observation
// sequence reproduces the same winners (the only randomness is the seeded
// exploration coin). All methods are safe for concurrent use.
package tune

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Class is the non-tunable identity of a problem: the spec fields a tuned
// configuration must preserve because changing them would change the
// numerical results or the resources the user asked for. Everything else
// (Knobs) is fair game — every knob is bit-identity-preserving.
type Class struct {
	// Solver names the catalog entry whose program the class runs ("" is
	// read as the catalog default by the program builder). Different
	// solvers have different stage graphs and costs, so they never share a
	// candidate ranking.
	Solver     string
	Domain     grid.Size
	Processors int
	// Variant is the requested 1D island mapping. It shapes the partition
	// but not the results; it stays in the class so a tuned config remains
	// comparable with the advisor's mapping sweep for the same request.
	Variant  decomp.Variant
	Boundary stencil.Boundary
	// IORD and Unlimited select the program build for solvers with MPDATA
	// options (zero for the rest).
	IORD      int
	Unlimited bool
}

// Knobs are the tunable configuration axes: every field toggles behavior
// that is bit-identical across its settings, so the tuner may substitute any
// feasible combination for the requested one.
type Knobs struct {
	Strategy    exec.Strategy
	CoreIslands bool
	// BlockI is the explicit (3+1)D block width (always > 0 in canonical
	// form — exec.ResolveBlockI resolves the "auto" request).
	BlockI        int
	DisableFusion bool
	Placement     grid.PlacementPolicy
}

// Candidate is one knob combination with its modeled and measured costs.
type Candidate struct {
	Knobs Knobs
	// Label is the advisor-style name plus knob suffixes.
	Label string
	// ModeledStep is the machine model's per-step cost in seconds (0 for a
	// candidate appended from a request the enumeration did not cover).
	ModeledStep float64
	// MeasuredStep is the EWMA of observed per-step wall seconds (0 until
	// the first observation).
	MeasuredStep float64
	// Imbalance is the EWMA of the observed worst per-island compute
	// imbalance (percent) — the tie-breaker between near-equal candidates.
	Imbalance float64
	// Obs counts folded-in observations.
	Obs int
}

// Observation is one completed measurement of a knob combination: a short
// calibration run or a served job's profile summary.
type Observation struct {
	Knobs Knobs
	// StepSeconds is the mean per-step wall time.
	StepSeconds float64
	// ImbalancePct is the worst per-island compute imbalance (0 when the
	// job did not profile).
	ImbalancePct float64
	// Steps is how many steps the measurement covered.
	Steps int
	// Explored marks a measurement from an exploration decision.
	Explored bool
}

// Decision is the tuner's answer for one request.
type Decision struct {
	Knobs Knobs
	// Label names the chosen candidate (advisor-style).
	Label string
	// Tuned reports that the chosen knobs differ from the requested ones.
	Tuned bool
	// Explore marks an epsilon-greedy exploration dispatch (charged
	// against the exploration budget).
	Explore bool
	// Reason says where the choice came from: "measured", "model",
	// "explore", "requested" (nothing known beats the request) or
	// "seed-error: ..." (passthrough).
	Reason string
}

// Seeder builds the initial candidate set of a class, ranked best-first by
// modeled step cost. The serving layer seeds through the machine model and
// the MPDATA program (see SeedCandidates); tests substitute fixed sets.
type Seeder func(Class) ([]Candidate, error)

// Options configures a Tuner. Zero values select the documented defaults.
type Options struct {
	// Seed seeds the exploration coin; tuning is deterministic given it.
	Seed int64
	// TopM bounds the candidates eligible for selection and exploration to
	// the M best-modeled ones (0 = 8). The requested configuration is
	// always eligible regardless.
	TopM int
	// Epsilon is the per-decision exploration probability (0..1). The
	// default 0 never explores; servers opt in explicitly.
	Epsilon float64
	// ExploreFrac caps the fraction of decided steps routed to exploration
	// (0 = 0.1). An exploration that would push the spent fraction past
	// the cap is skipped, so steady-state traffic stays on the winner.
	ExploreFrac float64
	// Alpha is the EWMA weight of a new observation (0 = 0.5).
	Alpha float64
	// TiePct is the score window (percent) within which a lower measured
	// imbalance wins a tie (0 = 2).
	TiePct float64
	// Seeder builds per-class candidate sets. Required.
	Seeder Seeder
}

func (o Options) withDefaults() Options {
	if o.TopM <= 0 {
		o.TopM = 8
	}
	if o.ExploreFrac <= 0 {
		o.ExploreFrac = 0.1
	}
	if o.Alpha <= 0 {
		o.Alpha = 0.5
	}
	if o.TiePct <= 0 {
		o.TiePct = 2
	}
	return o
}

// Counters is a snapshot of the tuner's decision accounting.
type Counters struct {
	// Decisions counts Decide calls; Tuned those that mapped the request
	// to different knobs; Explored the exploration dispatches.
	Decisions, Tuned, Explored uint64
	// SeedErrors counts classes whose seeding failed (passthrough mode).
	SeedErrors uint64
	// Classes is the number of distinct problem classes seen.
	Classes int
}

// problem is the tuner's per-class state.
type problem struct {
	cands   []Candidate
	index   map[Knobs]int
	seedErr error
	// seeded is the number of seeder-provided candidates (the TopM
	// eligibility window is a prefix of these; request-appended candidates
	// sit beyond it and are only eligible as the requested fallback).
	seeded int
	// ratioSum/ratioN average measured/modeled — the ProfileVsModel delta
	// folded back into the ranking: unmeasured candidates are scored at
	// ModeledStep times this calibration ratio.
	ratioSum float64
	ratioN   int
	// decidedSteps and exploreSteps account the exploration budget at
	// decision time (deterministic, independent of job completion order).
	decidedSteps, exploreSteps int64
}

// Tuner decides, per problem class, which knob combination requests run as.
type Tuner struct {
	mu       sync.Mutex
	opts     Options
	rng      *rand.Rand
	problems map[Class]*problem
	counters Counters
}

// New builds a tuner. Options.Seeder is required.
func New(opts Options) (*Tuner, error) {
	if opts.Seeder == nil {
		return nil, fmt.Errorf("tune: Options.Seeder is required")
	}
	opts = opts.withDefaults()
	return &Tuner{
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.Seed)),
		problems: make(map[Class]*problem),
	}, nil
}

// problemFor returns (seeding on first use) the class's state. Caller holds
// t.mu.
func (t *Tuner) problemFor(class Class) *problem {
	if p, ok := t.problems[class]; ok {
		return p
	}
	p := &problem{index: make(map[Knobs]int)}
	cands, err := t.opts.Seeder(class)
	if err != nil {
		p.seedErr = err
		t.counters.SeedErrors++
	} else {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].ModeledStep < cands[j].ModeledStep })
		for _, c := range cands {
			if _, dup := p.index[c.Knobs]; dup {
				continue
			}
			p.index[c.Knobs] = len(p.cands)
			p.cands = append(p.cands, c)
		}
		p.seeded = len(p.cands)
	}
	t.problems[class] = p
	return p
}

// ensure returns the candidate index of knobs, appending a stub candidate
// (unmodeled, unmeasured) when the enumeration did not cover them. Caller
// holds t.mu.
func (p *problem) ensure(knobs Knobs) int {
	if i, ok := p.index[knobs]; ok {
		return i
	}
	p.index[knobs] = len(p.cands)
	p.cands = append(p.cands, Candidate{Knobs: knobs, Label: "requested"})
	return len(p.cands) - 1
}

// score is the candidate's current per-step cost estimate: the measurement
// EWMA when observed, the calibrated model prediction otherwise, +Inf for a
// request-appended stub nothing is known about.
func (p *problem) score(c *Candidate) float64 {
	if c.Obs > 0 {
		return c.MeasuredStep
	}
	if c.ModeledStep > 0 {
		ratio := 1.0
		if p.ratioN > 0 {
			ratio = p.ratioSum / float64(p.ratioN)
		}
		return c.ModeledStep * ratio
	}
	return math.Inf(1)
}

// best picks the lowest-scoring candidate of the TopM, starting from the
// requested one as the incumbent — the tuner never returns knobs scored
// worse than the request. Within TiePct of the winner, a lower measured
// imbalance wins. Caller holds t.mu.
func (t *Tuner) best(p *problem, reqIdx int) int {
	bestIdx := reqIdx
	bestScore := p.score(&p.cands[reqIdx])
	for i := 0; i < p.seeded && i < t.opts.TopM; i++ {
		if i == reqIdx {
			continue
		}
		// A later candidate must win by more than rounding: after a single
		// observation an unmeasured candidate with the same modeled cost
		// scores modeled*(measured/modeled), which lands an ulp either side
		// of the measured one and would flip the choice at random.
		if s := p.score(&p.cands[i]); s < bestScore*(1-1e-9) {
			bestIdx, bestScore = i, s
		}
	}
	if math.IsInf(bestScore, 1) || p.cands[bestIdx].Obs == 0 {
		return bestIdx
	}
	// Imbalance tie-break among measured candidates within the window.
	window := bestScore * (1 + t.opts.TiePct/100)
	for i := 0; i < p.seeded && i < t.opts.TopM; i++ {
		c := &p.cands[i]
		if i == bestIdx || c.Obs == 0 {
			continue
		}
		if c.MeasuredStep <= window && c.Imbalance < p.cands[bestIdx].Imbalance {
			bestIdx = i
		}
	}
	return bestIdx
}

// exploreTarget picks the least-observed TopM candidate other than best, or
// -1. Deterministic: lowest observation count, then best modeled rank.
// Caller holds t.mu.
func (t *Tuner) exploreTarget(p *problem, bestIdx int) int {
	target := -1
	for i := 0; i < p.seeded && i < t.opts.TopM; i++ {
		if i == bestIdx {
			continue
		}
		if target < 0 || p.cands[i].Obs < p.cands[target].Obs {
			target = i
		}
	}
	return target
}

// Decide maps a request (its knobs and step count) to the knobs it should
// run as. The decision is the best-known candidate for the class — or, with
// probability Epsilon and within the ExploreFrac step budget, an
// under-observed candidate to refresh the ranking. A request whose class
// failed to seed, or whose knobs score at least as well as every candidate,
// passes through unchanged.
func (t *Tuner) Decide(class Class, requested Knobs, steps int) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters.Decisions++
	p := t.problemFor(class)
	if p.seedErr != nil {
		return Decision{Knobs: requested, Label: "requested", Reason: fmt.Sprintf("seed-error: %v", p.seedErr)}
	}
	reqIdx := p.ensure(requested)
	p.decidedSteps += int64(steps)
	bestIdx := t.best(p, reqIdx)

	if t.opts.Epsilon > 0 && t.rng.Float64() < t.opts.Epsilon {
		if target := t.exploreTarget(p, bestIdx); target >= 0 &&
			float64(p.exploreSteps+int64(steps)) <= t.opts.ExploreFrac*float64(p.decidedSteps) {
			p.exploreSteps += int64(steps)
			t.counters.Explored++
			c := &p.cands[target]
			if c.Knobs != requested {
				t.counters.Tuned++
			}
			return Decision{Knobs: c.Knobs, Label: c.Label, Tuned: c.Knobs != requested, Explore: true, Reason: "explore"}
		}
	}

	c := &p.cands[bestIdx]
	d := Decision{Knobs: c.Knobs, Label: c.Label, Tuned: c.Knobs != requested}
	switch {
	case bestIdx == reqIdx:
		d.Reason = "requested"
	case c.Obs > 0:
		d.Reason = "measured"
	default:
		d.Reason = "model"
	}
	if d.Tuned {
		t.counters.Tuned++
	}
	return d
}

// Best returns the greedy decision for a request — the current best-known
// candidate, never an exploration — without charging the budget or the
// decision counters. Reporting and tests use it to read the standings.
func (t *Tuner) Best(class Class, requested Knobs) Decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.problemFor(class)
	if p.seedErr != nil {
		return Decision{Knobs: requested, Label: "requested", Reason: fmt.Sprintf("seed-error: %v", p.seedErr)}
	}
	reqIdx := p.ensure(requested)
	bestIdx := t.best(p, reqIdx)
	c := &p.cands[bestIdx]
	d := Decision{Knobs: c.Knobs, Label: c.Label, Tuned: c.Knobs != requested}
	switch {
	case bestIdx == reqIdx:
		d.Reason = "requested"
	case c.Obs > 0:
		d.Reason = "measured"
	default:
		d.Reason = "model"
	}
	return d
}

// Observe folds one completed measurement back into the class's ranking:
// the candidate's EWMA cost and imbalance, and the class's measured/modeled
// calibration ratio (the ProfileVsModel delta applied to still-unmeasured
// candidates).
func (t *Tuner) Observe(class Class, obs Observation) {
	if obs.StepSeconds <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.problemFor(class)
	if p.seedErr != nil {
		return
	}
	c := &p.cands[p.ensure(obs.Knobs)]
	a := t.opts.Alpha
	if c.Obs == 0 {
		c.MeasuredStep = obs.StepSeconds
		c.Imbalance = obs.ImbalancePct
	} else {
		c.MeasuredStep = a*obs.StepSeconds + (1-a)*c.MeasuredStep
		c.Imbalance = a*obs.ImbalancePct + (1-a)*c.Imbalance
	}
	c.Obs++
	if c.ModeledStep > 0 {
		p.ratioSum += obs.StepSeconds / c.ModeledStep
		p.ratioN++
	}
}

// Measurer runs a short calibration of one knob combination and returns its
// observation. Used by Calibrate; the serving layer measures through the
// real compiled engine with the runtime profiler enabled.
type Measurer func(Knobs) (Observation, error)

// Calibrate measures every candidate of a class's TopM modeled prefix
// through the measurer and returns the resulting greedy decision — the
// one-shot tuning mode of mpdata-sim -tune. Measurement errors skip the
// candidate (it stays ranked by model); the first error is reported after all
// candidates ran.
func (t *Tuner) Calibrate(class Class, requested Knobs, measure Measurer) (Decision, error) {
	t.mu.Lock()
	p := t.problemFor(class)
	if p.seedErr != nil {
		t.mu.Unlock()
		return Decision{Knobs: requested, Label: "requested", Reason: fmt.Sprintf("seed-error: %v", p.seedErr)}, p.seedErr
	}
	var targets []Knobs
	for i := 0; i < p.seeded && i < t.opts.TopM; i++ {
		targets = append(targets, p.cands[i].Knobs)
	}
	t.mu.Unlock()

	var firstErr error
	for _, k := range targets {
		obs, err := measure(k)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("tune: measuring %+v: %w", k, err)
			}
			continue
		}
		obs.Knobs = k
		t.Observe(class, obs)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	reqIdx := p.ensure(requested)
	bestIdx := t.best(p, reqIdx)
	c := &p.cands[bestIdx]
	d := Decision{Knobs: c.Knobs, Label: c.Label, Tuned: c.Knobs != requested, Reason: "measured"}
	if c.Obs == 0 {
		d.Reason = "model"
	}
	return d, firstErr
}

// Snapshot returns a copy of the class's candidates in seeded (model) order
// with their live measurements — the tuning trajectory for reports. A class
// never seen (or failed to seed) returns nil.
func (t *Tuner) Snapshot(class Class) []Candidate {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.problems[class]
	if !ok || p.seedErr != nil {
		return nil
	}
	out := make([]Candidate, len(p.cands))
	copy(out, p.cands)
	return out
}

// Counters snapshots the decision accounting.
func (t *Tuner) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.counters
	c.Classes = len(t.problems)
	return c
}
