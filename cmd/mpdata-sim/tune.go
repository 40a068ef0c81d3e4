package main

import (
	"fmt"
	"time"

	"islands/internal/exec"
	"islands/internal/serve"
	"islands/internal/tune"
)

// calibrationSteps is the minimum number of timed steps per candidate in the
// one-shot tuning mode; candidates with a larger temporal block run whole
// blocks.
const calibrationSteps = 4

// runTune is the one-shot autotuning mode (-tune): enumerate the feasible
// knob combinations for the configured problem class, print the modeled
// ranking, measure every eligible candidate with a short calibration run
// through the real compiled engine, and print the measured trajectory plus
// the winning configuration.
func runTune(r *run, seed int64) error {
	ns, prog := r.ns, &r.kp.Program
	ec, err := r.execConfig(ns.Key())
	if err != nil {
		return err
	}
	class := serve.ClassOf(ns)
	tn, err := tune.New(tune.Options{
		Seed: seed,
		Seeder: func(c tune.Class) ([]tune.Candidate, error) {
			return tune.SeedCandidates(ec.Machine, prog, c)
		},
	})
	if err != nil {
		return err
	}
	base := class.BaseConfig(ec.Machine)
	req := tune.KnobsOf(ec, ns.Domain)

	// Seed the class (Best is greedy and side-effect free apart from
	// seeding) so the modeled ranking can be printed before any run.
	tn.Best(class, req)
	snap := tn.Snapshot(class)
	if snap == nil {
		return fmt.Errorf("tune: candidate seeding failed for %v", ns.Domain)
	}
	fmt.Printf("autotune: %s %v, %d steps on %d sockets (seed %d)\n",
		ns.Solver, ns.Domain, ns.Steps, ns.Processors, seed)
	fmt.Printf("modeled ranking (%d feasible candidates):\n", len(snap))
	for i, c := range snap {
		marker := ""
		if c.Knobs == req {
			marker = "  <- requested"
		}
		fmt.Printf("  %2d. %-44s %8.3f ms/step%s\n", i+1, c.Label, c.ModeledStep*1e3, marker)
	}

	label := func(k tune.Knobs) string {
		return exec.CandidateLabel(tune.ApplyKnobs(base, k))
	}
	fmt.Println("calibration runs (real compiled engine, warmed up):")
	measure := func(k tune.Knobs) (tune.Observation, error) {
		ec := tune.ApplyKnobs(base, k)
		ec.Steps = 1 // one dispatch advances one step, as a served engine's does
		state, err := r.entry.NewProblemState(ns.Domain)
		if err != nil {
			return tune.Observation{}, err
		}
		runner, err := exec.NewRunner(ec, r.kp, state.Inputs, state.Feedback)
		if err != nil {
			return tune.Observation{}, err
		}
		defer runner.Close()
		if err := runner.Run(); err != nil { // warm-up step (first touch, caches)
			return tune.Observation{}, err
		}
		runner.EnableProfile(false)
		start := time.Now()
		for i := 0; i < calibrationSteps; i++ {
			if err := runner.Run(); err != nil {
				return tune.Observation{}, err
			}
		}
		wall := time.Since(start)
		obs := tune.Observation{StepSeconds: wall.Seconds() / calibrationSteps, Steps: calibrationSteps}
		if p := runner.Profile(); p != nil {
			obs.ImbalancePct = p.Summary().MaxImbalancePct
		}
		fmt.Printf("  %-46s %8.3f ms/step  imbalance %4.1f%%\n",
			label(k), obs.StepSeconds*1e3, obs.ImbalancePct)
		return obs, nil
	}
	dec, err := tn.Calibrate(class, req, measure)
	if err != nil {
		return err
	}

	fmt.Println("standings after calibration:")
	for i, c := range tn.Snapshot(class) {
		measuredMs := "       -"
		if c.Obs > 0 {
			measuredMs = fmt.Sprintf("%8.3f", c.MeasuredStep*1e3)
		}
		fmt.Printf("  %2d. %-44s model %8.3f ms  measured %s ms\n",
			i+1, c.Label, c.ModeledStep*1e3, measuredMs)
	}
	fmt.Printf("winner: %s (%s)\n", dec.Label, dec.Reason)
	if dec.Tuned {
		fmt.Printf("tuned:  %s  ->  %s\n", label(req), dec.Label)
	} else {
		fmt.Println("tuned:  requested configuration confirmed best")
	}
	return nil
}
