package serve

import (
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/tune"
)

// This file wires the autotuner (internal/tune) into the serving path. With
// a tuner configured, every non-pinned job is mapped to the best-known knob
// combination for its problem class before the pool lease: the engine cache
// then stores one engine under the canonical tuned key instead of aliasing
// the same physical configuration under requested and tuned keys. Completed
// jobs report their measured step cost (and, when profiled, imbalance) back
// into the ranking, and a bounded epsilon-greedy exploration keeps the
// ranking honest as the host drifts from the model.

// TunerOptions configures the server-side autotuner (cmd/mpdata-serve
// -tune). Zero values pick the serving defaults.
type TunerOptions struct {
	// Seed makes tuning decisions reproducible.
	Seed int64
	// TopM bounds the candidates eligible for tuning/exploration (0 = 8).
	TopM int
	// Epsilon is the exploration probability per decision (0 = 0.1; pass
	// a negative value to disable exploration entirely).
	Epsilon float64
	// ExploreFrac caps the fraction of served steps spent exploring
	// (0 = 0.1).
	ExploreFrac float64
}

// NewTuner builds the serving tuner: candidates seeded from the machine
// model over each class's solver program, refined online by served jobs.
func NewTuner(o TunerOptions) (*tune.Tuner, error) {
	eps := o.Epsilon
	switch {
	case eps == 0:
		eps = 0.1
	case eps < 0:
		eps = 0
	}
	return tune.New(tune.Options{
		Seed:        o.Seed,
		TopM:        o.TopM,
		Epsilon:     eps,
		ExploreFrac: o.ExploreFrac,
		Seeder:      tune.NewModelSeeder(classProgram),
	})
}

// classProgram builds the stage program of a tuner class by dispatching on
// the class's catalog solver ("" reads as the default entry, so classes from
// before the Solver axis keep working).
func classProgram(c tune.Class) (*stencil.Program, error) {
	entry, err := solver.Lookup(c.Solver)
	if err != nil {
		return nil, err
	}
	prog, err := entry.NewProgram(solver.Options{IORD: c.IORD, Unlimited: c.Unlimited})
	if err != nil {
		return nil, err
	}
	return &prog.Program, nil
}

// ClassOf maps a normalized spec to its tuner problem class — the fields a
// tuned configuration must preserve. The solver is a class axis: each
// catalog entry has its own stage graph and cost profile, so rankings never
// mix across solvers.
func ClassOf(ns NormSpec) tune.Class {
	return tune.Class{
		Solver:     ns.Solver,
		Domain:     ns.Domain,
		Processors: ns.Processors,
		Variant:    ns.Variant,
		Boundary:   ns.Boundary,
		IORD:       ns.IORD,
		Unlimited:  ns.Unlimited,
	}
}

// requestedKnobs extracts the spec's tunable knobs in canonical form (auto
// BlockI resolved to its explicit width). ok is false when the machine
// cannot be built — the caller then skips tuning.
func requestedKnobs(ns NormSpec) (tune.Knobs, bool) {
	ec, err := ns.ExecConfig()
	if err != nil {
		return tune.Knobs{}, false
	}
	return tune.KnobsOf(ec, ns.Domain), true
}

// applyKnobs re-points a normalized spec at tuned knobs. The result's Key()
// is the canonical tuned cache key: two requests whose knobs tune to the
// same combination — or one spec requested with BlockI 0 and another with
// the same width spelled explicitly — lease the same cached engine.
func applyKnobs(ns NormSpec, k tune.Knobs) NormSpec {
	ns.Strategy = k.Strategy
	ns.CoreIslands = k.CoreIslands
	ns.BlockI = k.BlockI
	ns.DisableFusion = k.DisableFusion
	ns.Placement = k.Placement
	return ns
}
