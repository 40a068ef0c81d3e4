package tune

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// This file bridges the tuner's knob space to the executor: seeding a class
// from the machine model's ranking (exec.RankCandidates), and converting
// between Knobs and exec.Config. The program is supplied by the caller (the
// serving layer builds the class's MPDATA program), so tune stays free of
// any one stencil application.

// Machine returns the class's simulated machine.
func (c Class) Machine() (*topology.Machine, error) {
	return topology.UV2000(c.Processors)
}

// BaseConfig returns the executor config carrying the class's non-tunable
// fields, ready for ApplyKnobs. Steps is 1 (the model's per-step pricing
// unit); callers set their own step count.
func (c Class) BaseConfig(m *topology.Machine) exec.Config {
	return exec.Config{
		Machine:  m,
		Variant:  c.Variant,
		Boundary: c.Boundary,
		Steps:    1,
	}
}

// KnobsOf extracts the tunable axes of a config in canonical form: the
// machine and domain resolve an auto (or over-wide) BlockI to its explicit
// width, so two requests that compile the same physical schedule produce the
// same Knobs value.
func KnobsOf(cfg exec.Config, domain grid.Size) Knobs {
	k := Knobs{
		Strategy:      cfg.Strategy,
		CoreIslands:   cfg.CoreIslands,
		BlockI:        cfg.BlockI,
		KSteps:        cfg.KSteps,
		DisableFusion: cfg.DisableFusion,
		Placement:     cfg.Placement,
	}
	if cfg.Machine != nil && cfg.Strategy != exec.Original {
		k.BlockI = exec.ResolveBlockI(cfg.Machine, domain, cfg.BlockI)
	}
	if cfg.Strategy == exec.Original {
		k.BlockI = 0
	}
	return k.Canon()
}

// ApplyKnobs overlays the tunable axes onto a base config (the class's
// non-tunable fields pass through).
func ApplyKnobs(base exec.Config, k Knobs) exec.Config {
	cfg := base
	cfg.Strategy = k.Strategy
	cfg.CoreIslands = k.CoreIslands
	cfg.BlockI = k.BlockI
	cfg.KSteps = k.KSteps
	cfg.DisableFusion = k.DisableFusion
	cfg.Placement = k.Placement
	cfg.IslandGrid = [2]int{}
	return cfg
}

// SeedCandidates is exec.RankCandidates over a class's machine/program/domain
// and exec.TuneSpace (strategy x CoreIslands x BlockI x feasible KSteps x
// fusion x placement) as tuner candidates, ranked by modeled per-step cost.
// This is the default Seeder behind NewModelSeeder; BlockI comes back
// explicit so candidate knobs are canonical cache keys.
func SeedCandidates(m *topology.Machine, prog *stencil.Program, class Class) ([]Candidate, error) {
	ranked, err := exec.RankCandidates(m, prog, class.Domain, class.BaseConfig(m), exec.TuneSpace(m, class.Domain))
	if err != nil {
		return nil, err
	}
	if len(ranked) == 0 {
		return nil, fmt.Errorf("tune: no feasible candidate for %v on %d nodes", class.Domain, m.NumNodes())
	}
	out := make([]Candidate, len(ranked))
	for i, r := range ranked {
		out[i] = Candidate{Knobs: KnobsOf(r.Config, class.Domain), Label: exec.CandidateLabel(r.Config), ModeledStep: r.StepTime}
	}
	return out, nil
}

// ProgramBuilder builds the class's stencil program (the serving layer
// builds MPDATA from the class's IORD/Unlimited fields).
type ProgramBuilder func(Class) (*stencil.Program, error)

// NewModelSeeder returns the standard Seeder: build the class's machine and
// program, enumerate, model, rank.
func NewModelSeeder(buildProg ProgramBuilder) Seeder {
	return func(class Class) ([]Candidate, error) {
		m, err := class.Machine()
		if err != nil {
			return nil, err
		}
		prog, err := buildProg(class)
		if err != nil {
			return nil, err
		}
		return SeedCandidates(m, prog, class)
	}
}
