package main

import (
	"fmt"
	"math/rand"

	"islands/internal/serve"
)

// The four strategy arms of the paper's Table 3, in metric-name form.
var arms = []string{"original", "plus31d", "islands", "coreislands"}

// armSpec fills the strategy fields of a spec for one arm.
func armSpec(s serve.Spec, arm string) serve.Spec {
	switch arm {
	case "original":
		s.Strategy = "original"
	case "plus31d":
		s.Strategy = "3+1d"
	case "islands":
		s.Strategy = "islands"
	case "coreislands":
		s.Strategy, s.CoreIslands = "islands", true
	default:
		panic("bench: unknown arm " + arm)
	}
	return s
}

// class is one distinct job spec of a workload.
type class struct {
	name string
	arm  string // "" for the non-mpdata solvers
	spec serve.Spec
	ns   serve.NormSpec
}

// cellSteps is the useful work of one job of the class: domain cells times
// steps, no redundant halo cells.
func (c class) cellSteps() float64 {
	return float64(c.ns.Domain.Cells()) * float64(c.ns.Steps)
}

func newClass(name, arm string, spec serve.Spec) class {
	ns, err := spec.Normalize()
	if err != nil {
		panic(fmt.Sprintf("bench: class %s: %v", name, err))
	}
	return class{name: name, arm: arm, spec: spec, ns: ns}
}

// job is one unit of the closed loop: the classes it runs, in order. Served
// jobs hold one class; a resident sweep holds all four arms.
type job []int

// workload is one named traffic mix.
type workload struct {
	name    string
	why     string
	front   string // "", "serve" or "fleet"
	clients int
	slots   int // runner slots per server
	classes []class
	// listLen is the length of the seeded job list; the timed run walks it
	// and wraps if it runs out. prefix (fleet-mix) is how much of a longer
	// list this workload uses, so it draws the same jobs as serve-mix.
	listLen, prefix int
	warmup          int // warm-up passes over the class list
	jobs            func(w *workload, rng *rand.Rand) []job
}

const (
	sweepGrid  = "128x128x16"
	sweepSteps = 2
	mixSteps   = 5
)

func sweepClasses() []class {
	var cs []class
	for _, arm := range arms {
		s := armSpec(serve.Spec{Grid: sweepGrid, Solver: "mpdata", Steps: sweepSteps, Processors: 2, Boundary: "clamp"}, arm)
		cs = append(cs, newClass("mpdata-"+sweepGrid+"-"+arm, arm, s))
	}
	return cs
}

// mixClasses is the 16-class list of serve-mix and fleet-mix, most popular
// first: Zipf rank follows list order.
func mixClasses() []class {
	var cs []class
	mp := func(grid, arm string) {
		s := armSpec(serve.Spec{Grid: grid, Solver: "mpdata", Steps: mixSteps, Processors: 2}, arm)
		cs = append(cs, newClass("mpdata-"+grid+"-"+arm, arm, s))
	}
	for _, g := range []string{"48x32x8", "64x32x8"} {
		for _, arm := range arms {
			mp(g, arm)
		}
	}
	mp("96x32x8", "islands")
	mp("96x32x8", "plus31d")
	for _, sg := range [][2]string{
		{"heat", "64x32x8"}, {"lbm", "64x32x9"}, {"swe", "64x64x3"},
		{"wave", "64x64x2"}, {"life", "64x64x1"}, {"gcr", "48x32x8"},
	} {
		s := serve.Spec{Grid: sg[1], Solver: sg[0], Steps: mixSteps, Processors: 2}
		cs = append(cs, newClass(sg[0]+"-"+sg[1], "", s))
	}
	return cs
}

func streamedClasses() []class {
	s := serve.Spec{Grid: "384x64x16", Steps: 2, Strategy: "islands", Processors: 2, Streamed: true, MemoryBudgetMB: 16}
	return []class{newClass("mpdata-384x64x16-streamed", "islands", s)}
}

// zipfJobs draws single-class jobs Zipf(s=1.2, v=2) over the class list.
func zipfJobs(w *workload, rng *rand.Rand) []job {
	z := rand.NewZipf(rng, 1.2, 2, uint64(len(w.classes)-1))
	jobs := make([]job, w.listLen)
	for i := range jobs {
		jobs[i] = job{int(z.Uint64())}
	}
	return jobs
}

// sweepJobs makes every job one sweep over all classes; the seed draws the
// order the arms run in, so no arm always inherits the same predecessor's
// cache state.
func sweepJobs(w *workload, rng *rand.Rand) []job {
	jobs := make([]job, w.listLen)
	for i := range jobs {
		jobs[i] = job(rng.Perm(len(w.classes)))
	}
	return jobs
}

var workloads = []*workload{
	{
		name: "resident-sweep", clients: 1, classes: sweepClasses(), listLen: 200, warmup: 1, jobs: sweepJobs,
		why: "four strategy arms on 128x128x16 straight on the engine: kernels, barriers and publish undiluted by any server",
	},
	{
		name: "serve-mix", front: "serve", clients: 2, slots: 2, classes: mixClasses(), listLen: 4000, warmup: 1, jobs: zipfJobs,
		why: "16 small Zipf-drawn job classes over HTTP into one 2-slot server: per-job fixed cost, pool hit and miss paths",
	},
	{
		name: "fleet-mix", front: "fleet", clients: 2, slots: 1, classes: mixClasses(), listLen: 4000, prefix: 1000, warmup: 1, jobs: zipfJobs,
		why: "the first 1000 serve-mix jobs through the router and two 1-slot replicas: everything that differs is the fleet hop",
	},
	{
		name: "streamed", front: "serve", clients: 1, slots: 1, classes: streamedClasses(), listLen: 200, warmup: 5, jobs: sweepJobs,
		why: "out-of-core 384x64x16 jobs under a 16 MiB budget: tile pipeline, plane store and per-job tile-engine compiles",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// jobList is the workload's seeded job list: the same seed gives the same
// list, and the program under test only ever sees the specs it names.
func (w *workload) jobList(seed int64) []job {
	jobs := w.jobs(w, rand.New(rand.NewSource(seed)))
	if w.prefix > 0 {
		jobs = jobs[:w.prefix]
	}
	return jobs
}
