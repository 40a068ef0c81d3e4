package exec

import (
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestStepLoopAllocFree is the compiled-schedule executor's hard invariant: a
// warm Runner.Run allocates nothing, so a step costs kernels and barriers and
// no garbage collection stalls a team at its next barrier. It covers every
// MPDATA strategy arm of the root BenchmarkCompute* set, the fusion ablation,
// and every catalog solver on islands. The domain is small, but it picks the
// feedback publish: core sub-islands narrower than the step halo fall back to
// the copy publish, which the benchmarks' 128x64x16 grid never runs. So each
// subtest requires the publish its benchmark arm runs (swap for the shared
// environment, swap+halo for islands), and 32x32x8 gives every core part at
// least the step halo's width.
//
// The rebound arms run an unbound runner (NewUnboundRunner) on an arena
// another runner stepped on last, as a server's slot lends it: the steps stay
// alloc-free, and so does the bind of a cache hit, which finds the arena large
// enough.
//
// The untimed warm-up runs let the Go runtime fill its per-P sudog caches for
// the parked workers (sched.Team's select): those one-time allocations are the
// runtime's, not the step loop's, and a loop that allocates does so on every
// step, so it reads at least 1 however many steps are measured.
func TestStepLoopAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("about 6x slower under the race detector, whose run of this package is near its time limit")
	}
	const warm, measured = 20, 50
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(32, 32, 8)
	check := func(t *testing.T, cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string, mode FeedbackMode, rebound bool) {
		if cfg.Machine == nil {
			cfg.Machine = m
		}
		cfg.Boundary, cfg.Steps = stencil.Clamp, 1
		newRunner := NewRunner
		if rebound {
			newRunner = NewUnboundRunner
		}
		r, err := newRunner(cfg, prog, inputs, feedback)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if rebound {
			// The arena's last user: the same program on the shared
			// environment, over fields of its own.
			var arena grid.Arena
			other, err := NewUnboundRunner(Config{Machine: m, Strategy: Plus31D, BlockI: 4, Boundary: stencil.Clamp, Steps: 1}, prog, cloneInputs(inputs), feedback)
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			other.BindScratch(&arena)
			if err := other.Run(); err != nil {
				t.Fatal(err)
			}
			other.UnbindScratch()
			r.BindScratch(&arena)
			if n := testing.AllocsPerRun(measured, func() {
				r.UnbindScratch()
				r.BindScratch(&arena)
			}); n != 0 {
				t.Fatalf("binding a large-enough arena allocates %v times, want 0", n)
			}
		}
		if got := r.Schedule().Stats().Feedback; got != mode {
			t.Fatalf("%v publishes by %v, want %v as its benchmark arm does", domain, got, mode)
		}
		for i := 0; i < warm; i++ {
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(measured, func() {
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("a warm step allocates %v times, want 0", n)
		}
	}

	for _, arm := range []struct {
		name    string
		cfg     Config
		mode    FeedbackMode
		rebound bool
	}{
		{"original", Config{Strategy: Original}, FeedbackSwap, false},
		{"plus31d", Config{Strategy: Plus31D}, FeedbackSwap, false},
		{"islands", Config{Strategy: IslandsOfCores}, FeedbackSwapHalo, false},
		{"coreislands", Config{Strategy: IslandsOfCores, CoreIslands: true}, FeedbackSwapHalo, false},
		{"islands-nofuse", Config{Strategy: IslandsOfCores, DisableFusion: true}, FeedbackSwapHalo, false},
		// Owned barriers (TestOwnedBarriersFollowTheSlots) read the clock
		// while they spin; that must not allocate either.
		{"plus31d-owned", Config{Machine: ownedHostMachine(t), Strategy: Plus31D}, FeedbackSwap, false},
		{"original-rebound", Config{Strategy: Original}, FeedbackSwap, true},
		{"islands-rebound", Config{Strategy: IslandsOfCores}, FeedbackSwapHalo, true},
		{"coreislands-rebound", Config{Strategy: IslandsOfCores, CoreIslands: true}, FeedbackSwapHalo, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			state := mpdata.NewState(domain)
			state.SetGaussian(16, 16, 4, 3, 1, 0.1)
			state.SetUniformVelocity(0.2, 0.1, 0.05)
			cfg := arm.cfg
			cfg.BlockI = 4
			check(t, cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi, arm.mode, arm.rebound)
		})
	}

	for _, name := range solver.Names() {
		t.Run("solver-"+name, func(t *testing.T) {
			entry, err := solver.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			// The domain, or the nearest k extent the solver's component
			// packing accepts.
			d := domain
			for nk := 1; nk <= 16 && entry.CheckDomain != nil && entry.CheckDomain(d) != nil; nk++ {
				d.NK = nk
			}
			kp, err := entry.NewProgram(solver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			state, err := entry.NewProblemState(d)
			if err != nil {
				t.Fatal(err)
			}
			check(t, Config{Strategy: IslandsOfCores, BlockI: 4}, kp, state.Inputs, state.Feedback, FeedbackSwapHalo, false)
		})
	}
}

// cloneInputs deep-copies a runner's step inputs.
func cloneInputs(in map[string]*grid.Field) map[string]*grid.Field {
	out := make(map[string]*grid.Field, len(in))
	for k, f := range in {
		out[k] = f.Clone()
	}
	return out
}
