// Command bench is the repository's benchmark: four workloads from the row
// kernels up to the fleet router, six end-to-end metrics per workload, and a
// traced run that attributes each workload's time to the layers it crosses.
// README.md in this directory says what each number means.
//
//	bash bench/run.sh                      all four workloads, timed then traced, each in a child process
//	bash bench/run.sh -check               two timed sets back to back, compared against the bounds
//	bash bench/run.sh -workload serve-mix  one workload in this process (what BENCHMARK.json's command runs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	quick    bool
	check    bool
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process, and end with its result line")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the job generator")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of one run's measurement")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans here as Chrome trace-event JSON")
	flag.BoolVar(&o.quick, "quick", false, "runs a twentieth as long, one set-up each, and enforces no bound: for iterating")
	flag.BoolVar(&o.check, "check", false, "run two timed sets back to back and fail when they differ by more than a bound")
	flag.StringVar(&o.out, "out", "", "without -workload: also write the set of results here as JSON")
	compareMode := flag.Bool("compare", false, "compare the two result files given as arguments instead of running")
	flag.Parse()

	var err error
	switch {
	case *compareMode:
		err = compareFiles(flag.Args())
	case o.workload != "" && !o.check:
		err = runOne(o)
	default:
		err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func (o options) effective() (seconds float64, reps int) {
	if o.quick {
		return o.seconds / 20, 1
	}
	return o.seconds, setupReps
}

// runOne runs one workload in this process. Standard output ends with the
// result line; before it come the fingerprint and each metric with its
// sample counts.
func runOne(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	seconds, reps := o.effective()
	fp, err := json.Marshal(hostFingerprint(o.seed, o.seconds))
	if err != nil {
		return err
	}
	fmt.Printf("fingerprint: %s\n", fp)

	var res *result
	if o.trace == 0 {
		t, err := timedRun(w, o.seed, seconds, reps, windows)
		if err != nil {
			return err
		}
		res = &t.res
		t.describe(os.Stdout, w)
	} else {
		if res, err = tracedRun(w, o.seed, seconds, o.traceOut, !o.quick); err != nil {
			return err
		}
		for _, d := range perLayer {
			if v := res.Metrics[d.name]; v.Value != 0 {
				fmt.Printf("%-46s %14.4f %s\n", d.name, v.Value, v.Unit)
			}
		}
		if res.Metrics["host.triad_gbs"].Value != 0 {
			fmt.Printf("host.triad_gbs: 3 arrays of %d MiB on 2 goroutines, best of 5; cpu0 L2 %d KiB, L3 %d KiB; units ending in -modeled are the simulated UV 2000, not this host\n",
				triadBytes>>20, cacheKiB(2), cacheKiB(3))
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d jobs failed or none ran", w.name, res.Failed, res.Attempted)
	}
	return nil
}
