package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"islands"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/sched"
	"islands/internal/serve"
	"islands/internal/stream"
	"islands/internal/tune"
)

// Probes time single public calls of one layer, a few seconds in all, after
// the traced run of the workload that stresses that layer.

// bestOf returns the shortest of n timings of f.
func bestOf(n int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

// triadBytes is the size of each of the three triad arrays: 256 MiB, far
// past four times any last-level cache this runs on (the fingerprint states
// the cache sizes beside it).
const triadBytes = 256 << 20

// triadGBs measures sustainable memory bandwidth with the STREAM triad
// a[i] = b[i] + s*c[i] on two goroutines, best of 5, counting the three
// arrays' bytes once each (no write-allocate traffic), in GB/s.
func triadGBs() float64 {
	n := triadBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	const workers = 2
	pass := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				a, b, c := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			}(w*n/workers, (w+1)*n/workers)
		}
		wg.Wait()
	}
	pass() // first touch of a
	d := bestOf(5, pass)
	return 3 * float64(triadBytes) / d.Seconds() / 1e9
}

// barrierNs is the round-trip time of one sched.Barrier crossing with n
// goroutines, the per-phase synchronisation cost of an n-worker team.
func barrierNs(n int) float64 {
	const rounds = 2000
	b := sched.NewBarrier(n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b.Wait()
			}
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / rounds
}

// stepSeconds compiles an engine for the spec and returns the median time of
// one Step dispatch over n dispatches after a warm-up, divided by the steps a
// dispatch advances.
func stepSeconds(spec serve.Spec, n int) (float64, error) {
	ns, err := spec.Normalize()
	if err != nil {
		return 0, err
	}
	eng, err := serve.NewSolverEngine(ns)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if err := eng.Reset(); err != nil {
		return 0, err
	}
	var ds []float64
	for i := 0; i <= n; i++ {
		t0 := time.Now()
		if err := eng.Step(); err != nil {
			return 0, err
		}
		if i > 0 { // the first dispatch pays first-touch
			ds = append(ds, time.Since(t0).Seconds()/float64(ns.StepsPerDispatch()))
		}
	}
	return median(ds), nil
}

// allocsPerStep counts heap allocations over 100 steps of a warm engine; the
// step loop is meant to allocate nothing.
func allocsPerStep(eng serve.Engine) (float64, error) {
	const steps = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		if err := eng.Step(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / steps, nil
}

// kendallTau is the rank agreement of two equally long series: +1 when every
// pair is ordered alike, -1 when every pair is reversed.
func kendallTau(a, b []float64) float64 {
	var conc, disc float64
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			switch s := (a[i] - a[j]) * (b[i] - b[j]); {
			case s > 0:
				conc++
			case s < 0:
				disc++
			}
		}
	}
	if conc+disc == 0 {
		return 0
	}
	return (conc - disc) / (conc + disc)
}

// libraryRun50 times the public facade end to end: compile plus 50 steps of
// the sweep problem under the islands strategy.
func libraryRun50() (float64, error) {
	d := workloads[0].classes[0].ns.Domain
	t0 := time.Now()
	sim, err := islands.NewSimulation(islands.Sz(d.NI, d.NJ, d.NK), islands.Config{Processors: 2, Strategy: exec.IslandsOfCores, Steps: 50})
	if err != nil {
		return 0, err
	}
	if err := sim.Run(); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}

// normalizeUs and poolHitAcquireUs time the two fixed costs every served job
// pays before its engine runs.
func normalizeUs(spec serve.Spec) float64 {
	const n = 2000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := spec.Normalize(); err != nil {
			return 0
		}
	}
	return float64(time.Since(t0).Microseconds()) / n
}

func poolHitAcquireUs(ns serve.NormSpec) (float64, error) {
	const n = 2000
	pool := serve.NewPool(1, 0, serve.NewSolverEngine)
	defer pool.Close()
	lease, err := pool.Acquire(context.Background(), ns)
	if err != nil {
		return 0, err
	}
	lease.Release(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if lease, err = pool.Acquire(context.Background(), ns); err != nil {
			return 0, err
		}
		lease.Release(true)
	}
	return float64(time.Since(t0).Microseconds()) / n, nil
}

// planeFileMBs writes then reads a plane file of the streamed job's domain
// in the spill directory, synced like the tile pipeline syncs, and returns
// the write and read rates in MB/s.
func planeFileMBs(dir string, domain grid.Size) (write, read float64, err error) {
	path := filepath.Join(dir, "probe.islp")
	defer os.Remove(path)
	buf := make([]float64, int(grid.PlaneBytes(domain)/grid.CellBytes)*domain.NI)
	for i := range buf {
		buf[i] = float64(i)
	}
	bytes := float64(len(buf)) * grid.CellBytes
	wd := bestOf(3, func() {
		var pf *grid.PlaneFile
		if pf, err = grid.CreatePlaneFile(path, domain); err != nil {
			return
		}
		if err = pf.WritePlanes(buf, 0, domain.NI); err == nil {
			err = pf.Sync()
		}
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return 0, 0, err
	}
	pf, err := grid.OpenPlaneFile(path)
	if err != nil {
		return 0, 0, err
	}
	defer pf.Close()
	rd := bestOf(3, func() {
		if rerr := pf.ReadPlanes(buf, 0, domain.NI); rerr != nil {
			err = rerr
		}
	})
	return bytes / wd.Seconds() / 1e6, bytes / rd.Seconds() / 1e6, err
}

// copyRegionGBs is the rate of grid.CopyRegion over a whole sweep-sized
// field (bytes copied once), the primitive behind publish and tile loads.
func copyRegionGBs() float64 {
	d := workloads[0].classes[0].ns.Domain
	src, dst := grid.NewField("src", d), grid.NewField("dst", d)
	src.Fill(1)
	whole := grid.WholeRegion(d)
	t := bestOf(20, func() { grid.CopyRegion(dst, src, whole) })
	return float64(d.Cells()) * grid.CellBytes / t.Seconds() / 1e9
}

// streamProbe runs the streamed class once through stream.New(...).Run()
// with the residency the server picked, and returns the stalls the compute
// goroutine spent waiting on the loader and the writer.
func streamProbe(dir string, ns serve.NormSpec, tilePlanes, k int) (loadMs, writeMs float64, err error) {
	cfg, err := ns.ExecConfig()
	if err != nil {
		return 0, 0, err
	}
	cfg.Steps, cfg.KSteps = ns.Steps, k
	st, err := stream.New(stream.Options{
		Dir: filepath.Join(dir, "probe-stream"), Exec: cfg, Domain: ns.Domain,
		Solver: ns.Solver, IORD: ns.IORD, Unlimited: ns.Unlimited, TilePlanes: tilePlanes,
	})
	if err != nil {
		return 0, 0, err
	}
	defer st.Remove()
	if err := st.Run(); err != nil {
		return 0, 0, err
	}
	s := st.Stats()
	return ms(s.LoadStall), ms(s.WriteStall), nil
}

// pickResidencyMs times tune.PickResidency for the streamed class: the
// decision every streamed job makes before its first tile.
func pickResidencyMs(ns serve.NormSpec) (float64, error) {
	cfg, err := ns.ExecConfig()
	if err != nil {
		return 0, err
	}
	_, prog, err := programOf(ns)
	if err != nil {
		return 0, err
	}
	class := tune.Class{Solver: ns.Solver, Domain: ns.Domain, Processors: ns.Processors, Variant: ns.Variant, Boundary: ns.Boundary}
	knobs := tune.KnobsOf(cfg, ns.Domain)
	budget := int64(ns.MemoryBudgetMB) << 20
	var perr error
	d := bestOf(5, func() {
		if _, err := tune.PickResidency(cfg.Machine, &prog.Program, class, knobs, ns.Steps, budget, 0); err != nil {
			perr = err
		}
	})
	return ms(d), perr
}

// scheduleFacts compiles a runner for the class outside any server and
// returns the exact per-step counts of its schedule, the model's price for
// the sweep and the model's traffic estimate.
type scheduleFacts struct {
	stats      exec.ScheduleStats
	modelSec   float64 // modeled seconds for the class's steps on UV2000(2)
	modelBytes float64 // modeled main-memory bytes per step
	extraPct   float64
	flopsStep  float64
}

func factsOf(ns serve.NormSpec) (*scheduleFacts, error) {
	cfg, err := ns.ExecConfig()
	if err != nil {
		return nil, err
	}
	entry, prog, err := programOf(ns)
	if err != nil {
		return nil, err
	}
	st, err := entry.NewState(ns.Domain)
	if err != nil {
		return nil, err
	}
	runner, err := exec.NewRunner(cfg, prog, st.Inputs, st.Feedback)
	if err != nil {
		return nil, err
	}
	defer runner.Close()
	f := &scheduleFacts{stats: runner.Schedule().Stats(), flopsStep: exec.UsefulFlopsPerStep(&prog.Program, ns.Domain)}
	mcfg := cfg
	mcfg.Steps = ns.Steps
	m, err := exec.Model(mcfg, &prog.Program, ns.Domain)
	if err != nil {
		return nil, fmt.Errorf("model %s: %w", ns.StrategyName(), err)
	}
	f.modelSec, f.modelBytes, f.extraPct = m.TotalTime, m.MemTrafficBytes/float64(ns.Steps), m.ExtraElementsPct
	return f, nil
}

// mode returns the most frequent value (the smallest on a tie).
func mode(vs []int) int {
	counts := map[int]int{}
	for _, v := range vs {
		counts[v]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	best := 0
	for _, k := range keys {
		if counts[k] > counts[best] {
			best = k
		}
	}
	return best
}
