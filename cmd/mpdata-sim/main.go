// Command mpdata-sim runs one solver configuration: it executes the real
// numerical computation with the chosen strategy on goroutine work teams,
// verifies the physics invariants, and prints the modeled execution time of
// the same configuration on the simulated SGI UV 2000. The workload defaults
// to the paper's MPDATA program; -solver selects any entry of the solver
// catalog (docs/SOLVERS.md) and compiles it onto the same islands platform.
//
// Example:
//
//	mpdata-sim -grid 128x64x16 -steps 20 -strategy islands -p 4
//	mpdata-sim -solver lbm -grid 256x128x9 -steps 50 -strategy islands -p 4
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/perf"
	"islands/internal/serve"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/stream"
)

// run is the one description every mode derives from: the flags as a
// normalized job spec, with its catalog entry and kernel program resolved.
type run struct {
	ns    serve.NormSpec
	entry *solver.Entry
	kp    *stencil.KernelProgram
}

// newRun validates the spec (serve.Spec.Normalize is the only validator) and
// builds the solver's program once for whichever mode runs.
func newRun(spec serve.Spec) (*run, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	entry, err := ns.SolverEntry()
	if err != nil {
		return nil, err
	}
	kp, err := entry.NewProgram(ns.SolverOptions())
	if err != nil {
		return nil, err
	}
	return &run{ns: ns, entry: entry, kp: kp}, nil
}

// execConfig is the executor configuration of the whole run under key — the
// run's own, or a strategy arm of it. ExecConfig compiles one dispatch unit
// per Run for the server's step loop; the CLI advances every step in one Run.
func (r *run) execConfig(key serve.CacheKey) (exec.Config, error) {
	ec, err := key.ExecConfig()
	ec.Steps = r.ns.Steps
	return ec, err
}

// arm is one strategy configuration of the -schedule and -profile sweeps.
type arm struct {
	name        string
	strategy    exec.Strategy
	coreIslands bool
}

var arms = []arm{
	{"original", exec.Original, false},
	{"(3+1)D", exec.Plus31D, false},
	{"islands-of-cores", exec.IslandsOfCores, false},
	{"islands-of-cores+core-islands", exec.IslandsOfCores, true},
}

// armConfig is the run's configuration with the strategy replaced by the
// arm's.
func (r *run) armConfig(a arm) (exec.Config, error) {
	key := r.ns.Key()
	key.Strategy, key.CoreIslands = a.strategy, a.coreIslands
	return r.execConfig(key)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpdata-sim: ")
	// No internal failure may escape as a raw panic with a stack trace:
	// convert anything unexpected into a diagnostic and exit status 1.
	defer func() {
		if p := recover(); p != nil {
			log.Fatalf("internal error: %v", p)
		}
	}()
	solverFlag := flag.String("solver", "mpdata", "catalog solver to run (docs/SOLVERS.md; an unknown name lists the catalog)")
	gridFlag := flag.String("grid", "128x64x16", "domain size NIxNJxNK")
	steps := flag.Int("steps", 10, "number of time steps")
	p := flag.Int("p", 2, "number of UV 2000 processors (1..14)")
	strategyFlag := flag.String("strategy", "islands", "original | 3+1d | islands")
	placementFlag := flag.String("placement", "parallel", "serial | parallel | interleaved page placement")
	variantFlag := flag.String("variant", "A", "1D island mapping variant (A = i dimension, B = j)")
	compute := flag.Bool("compute", true, "run the real numerical computation")
	advise := flag.Bool("advise", false, "price every strategy/mapping on the machine model and rank them")
	tuneFlag := flag.Bool("tune", false, "one-shot autotune: enumerate, model and measure candidate configs for this problem and print the winner (docs/TUNING.md)")
	tuneSeed := flag.Int64("tune-seed", 1, "autotuner random seed (-tune)")
	counters := flag.Bool("counters", false, "print per-socket and per-link traffic counters for the modeled run")
	modelTrace := flag.Bool("modeltrace", false, "print the simulated timeline of one step (model profiling)")
	profile := flag.Bool("profile", false, "run every strategy with the runtime profiler and print per-phase, per-island and measured-vs-model tables")
	traceOut := flag.String("trace", "", "profile the selected strategy and write a Chrome trace-event JSON timeline to this file (chrome://tracing, Perfetto)")
	coreIslands := flag.Bool("coreislands", false, "apply islands inside each socket (per-core sub-islands)")
	iord := flag.Int("iord", 2, "MPDATA order (number of passes, 1..4)")
	dump := flag.String("dump", "", "write the final psi field to this file (grid field format)")
	streamBudget := flag.Int("stream-budget-mb", 0, "run out of core under this resident-memory budget in MiB: the domain is streamed through disk-backed tiles (0 = resident; docs/STREAMING.md)")
	spillDir := flag.String("spill-dir", "", "spill directory for -stream-budget-mb (\"\" = a private temp dir, removed afterwards)")
	plan := flag.Bool("plan", false, "print the program's stages and halos, then the execution geometry (islands, blocks, redundancy), and exit")
	schedule := flag.Bool("schedule", false, "print every strategy's compiled schedule and feedback-publish table (mode, halo strips, bytes per step) and exit")
	topo := flag.Bool("topology", false, "print the simulated machine description and exit")
	flag.Parse()

	spec := serve.Spec{
		Grid: *gridFlag, Solver: *solverFlag, Steps: *steps, Strategy: *strategyFlag,
		Processors: *p, Placement: *placementFlag, Variant: *variantFlag, CoreIslands: *coreIslands,
		Streamed: *streamBudget != 0, MemoryBudgetMB: *streamBudget,
	}
	// -iord's default belongs to the solvers that read it; the spec rejects
	// the option on the others, so only an explicit -iord is passed on.
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "iord" {
			spec.IORD = *iord
		}
	})
	r, err := newRun(spec)
	if err != nil {
		log.Fatal(err)
	}
	ns, prog := r.ns, &r.kp.Program

	if ns.Streamed {
		if err := runStreamed(ns, *spillDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *tuneFlag {
		if err := runTune(r, *tuneSeed); err != nil {
			log.Fatal(err)
		}
		return
	}

	ec, err := r.execConfig(ns.Key())
	if err != nil {
		log.Fatal(err)
	}

	if *advise {
		ranked, err := exec.RankCandidates(ec.Machine, prog, ns.Domain, exec.Config{Steps: ns.Steps}, exec.AdvisorSpace())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy advice for %s %v, %d steps on %d sockets:\n", ns.Solver, ns.Domain, ns.Steps, ns.Processors)
		fmt.Print(adviceReport(ranked))
		return
	}

	if *profile || *traceOut != "" {
		if err := runProfiled(r, *profile, *traceOut); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *schedule {
		if err := runScheduleReport(r); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%s %v, %d steps, %s on %d x Xeon E5-4627v2 (%s placement, variant %v)\n",
		ns.Solver, ns.Domain, ns.Steps, ns.Strategy, ns.Processors, ns.Placement, ns.Variant)

	if *topo {
		fmt.Print(ec.Machine.Describe())
		return
	}

	if *plan {
		h, err := stencil.Analyze(prog)
		if err != nil {
			log.Fatal(err)
		}
		out, err := exec.DescribePlan(ec, prog, ns.Domain)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(prog.Describe(h), "\n", out)
		return
	}

	if *compute {
		if err := runCompute(r, ec, *dump); err != nil {
			log.Fatal(err)
		}
	} else if *dump != "" {
		log.Fatal("-dump requires -compute=true")
	}

	// The machine model prices any catalog program.
	res, err := exec.Model(ec, prog, ns.Domain)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("modeled UV 2000 time:   %.3f s (%.1f Gflop/s sustained, %.1f%% of peak)\n",
		res.TotalTime, res.SustainedFlops()/1e9, 100*res.SustainedFlops()/ec.Machine.PeakFlops())
	fmt.Printf("memory traffic:         %.2f GB (%.2f GB over NUMAlink)\n",
		res.MemTrafficBytes/1e9, res.RemoteTrafficBytes/1e9)
	if ns.Strategy == exec.IslandsOfCores {
		fmt.Printf("redundant computation:  %.2f%% extra elements\n", res.ExtraElementsPct)
	}
	if *counters {
		fmt.Println()
		fmt.Print(perf.CountersTable(ec.Machine, res).Render())
	}
	if *modelTrace {
		_, timeline, err := exec.ModelTrace(ec, prog, ns.Domain, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println()
		fmt.Print(timeline)
	}
}

// adviceReport renders a RankCandidates ranking: the recommendation, then
// every candidate with its modeled time, its speedup over the slowest and its
// cost structure.
func adviceReport(ranked []*exec.ModelResult) string {
	if len(ranked) == 0 {
		return "no feasible configuration\n"
	}
	best, slowest := ranked[0], ranked[len(ranked)-1]
	s := fmt.Sprintf("recommended: %s (%.3f s)\n", exec.CandidateLabel(best.Config), best.TotalTime)
	for i, r := range ranked {
		s += fmt.Sprintf("  %2d. %-26s %9.3f s  %5.1fx  %s\n",
			i+1, exec.CandidateLabel(r.Config), r.TotalTime, slowest.TotalTime/r.TotalTime, r.Rationale())
	}
	return s
}

// runCompute executes the solver's standard problem on the compiled islands
// platform and prints the conservation summary. The field sum is a physical
// invariant only where the scheme conserves it (mass for MPDATA and SWE, total
// density for LBM); it is printed for every solver as a cheap reproducibility
// checksum either way, under the name the streamed mode and the served
// checksums give it.
func runCompute(r *run, ec exec.Config, dump string) error {
	state, err := r.entry.NewProblemState(r.ns.Domain)
	if err != nil {
		return err
	}
	runner, err := exec.NewRunner(ec, r.kp, state.Inputs, state.Feedback)
	if err != nil {
		return err
	}
	defer runner.Close()
	out := state.Output()
	before := out.Sum()
	if err := runner.Run(); err != nil {
		return err
	}
	runner.SyncFeedback()
	after := out.Sum()
	var drift float64
	if before != 0 {
		drift = (after - before) / before
	}
	fmt.Printf("computation: done; mass %.6f -> %.6f (drift %.2e), min %.3e\n",
		before, after, drift, out.Min())
	if dump != "" {
		if err := grid.SaveField(dump, out); err != nil {
			return err
		}
		fmt.Printf("final field written to %s\n", dump)
	}
	return nil
}

// runStreamed executes the computation out of core (docs/STREAMING.md):
// serve.OpenStream picks the widest tile and temporal factor k fitting the
// memory budget (or keeps an explicit spill dir's checkpointed ones), the
// domain spills to a disk-backed plane store, and the stream drives tiles
// through a resident engine with double-buffered prefetch. The checksums
// printed are bit-identical to the resident run's.
func runStreamed(ns serve.NormSpec, dir string) error {
	temp := dir == ""
	if temp {
		var err error
		if dir, err = os.MkdirTemp("", "mpdata-stream-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	// An explicit spill dir is kept, and a checkpoint found in it resumes.
	st, picked, err := serve.OpenStream(ns, stream.Options{Dir: dir, Resume: !temp}, ns.MemoryBudgetMB, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	switch {
	case picked == nil:
		fmt.Printf("residency: resuming %s with its checkpointed w=%d k=%d\n", dir, st.Plan().TilePlanes, st.Plan().K)
	case picked.Resident:
		fmt.Printf("residency: whole domain fits the %d MiB budget; streaming one degenerate tile\n", ns.MemoryBudgetMB)
	default:
		fmt.Printf("residency: %s under %d MiB (modeled %.3f s, overlap bound %.0f%%)\n",
			picked.Label, ns.MemoryBudgetMB, picked.Cost.TotalSec, picked.Cost.OverlapBound*100)
	}
	if err := st.Run(); err != nil {
		return err
	}
	ck, err := st.Checksums()
	if err != nil {
		return err
	}
	fmt.Printf("computation: done; mass %.6f -> %.6f (drift %.2e), min %.3e\n",
		ck.MassIn, ck.Sum, (ck.Sum-ck.MassIn)/ck.MassIn, ck.Min)
	fmt.Println()
	fmt.Print(perf.StreamTable(st.Plan(), st.Stats()).Render())
	if !temp {
		fmt.Printf("spill store kept in %s (rerun resumes from its checkpoint)\n", dir)
	}
	return st.Close()
}

// runScheduleReport compiles every strategy at the configured grid and
// socket count and prints each compiled schedule (DescribeSchedule: per-team
// items, barriers, feedback mode — for swap+halo the strip count and bytes
// per step, for a refused exchange the fallback reason) followed by the
// feedback-publish summary table.
func runScheduleReport(r *run) error {
	fmt.Printf("compiled schedules: %s %v on %d sockets\n\n", r.ns.Solver, r.ns.Domain, r.ns.Processors)
	rows := make([]perf.FeedbackRow, 0, len(arms))
	for _, a := range arms {
		ec, err := r.armConfig(a)
		if err != nil {
			return err
		}
		state, err := r.entry.NewState(r.ns.Domain)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		runner, err := exec.NewRunner(ec, r.kp, state.Inputs, state.Feedback)
		if err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Printf("=== %s ===\n%s\n", a.name, runner.DescribeSchedule())
		rows = append(rows, perf.FeedbackRow{Name: a.name, Stats: runner.Schedule().Stats()})
		runner.Close()
	}
	fmt.Print(perf.FeedbackTable(r.ns.Domain, rows).Render())
	return nil
}

// runProfiled executes real computations with the runtime profiler enabled.
// With report=true it sweeps all strategies and prints the per-phase,
// per-island and measured-vs-model tables; with tracePath set it additionally
// (or only) writes the configured strategy's Chrome trace-event timeline.
func runProfiled(r *run, report bool, tracePath string) error {
	ns := r.ns
	cases := arms
	if !report {
		// Trace-only mode: just the configured strategy.
		cases = []arm{{ns.Strategy.String(), ns.Strategy, ns.CoreIslands}}
	}
	fmt.Printf("runtime profile: %s %v, %d steps on %d sockets\n\n", ns.Solver, ns.Domain, ns.Steps, ns.Processors)
	for _, a := range cases {
		armTrace := ""
		if a.strategy == ns.Strategy && a.coreIslands == ns.CoreIslands {
			armTrace = tracePath
		}
		if err := profileArm(r, a, report, armTrace); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return nil
}

// profileArm runs one strategy arm under the profiler, prints its share of the
// -profile report and, given a tracePath, writes the arm's timeline there.
func profileArm(r *run, a arm, report bool, tracePath string) error {
	ec, err := r.armConfig(a)
	if err != nil {
		return err
	}
	state, err := r.entry.NewProblemState(r.ns.Domain)
	if err != nil {
		return err
	}
	runner, err := exec.NewRunner(ec, r.kp, state.Inputs, state.Feedback)
	if err != nil {
		return err
	}
	defer runner.Close()
	runner.EnableProfile(tracePath != "")
	if err := runner.Run(); err != nil {
		return err
	}
	prof := runner.Profile()
	if report {
		fmt.Print(perf.ProfileTable(a.name, prof).Render())
		fmt.Println()
		fmt.Print(perf.IslandTable(a.name, prof).Render())
		res, _, err := exec.ModelTrace(ec, &r.kp.Program, r.ns.Domain, 1)
		if err != nil {
			return fmt.Errorf("model: %w", err)
		}
		fmt.Println()
		fmt.Print(perf.ProfileVsModelTable(a.name, prof, res.TagTimes()).Render())
		fmt.Println()
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := runner.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace of %s written to %s (load in chrome://tracing or Perfetto)\n", a.name, tracePath)
	}
	return nil
}
