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
	check := func(t *testing.T, cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string, mode FeedbackMode) {
		if cfg.Machine == nil {
			cfg.Machine = m
		}
		cfg.Boundary, cfg.Steps = stencil.Clamp, 1
		r, err := NewRunner(cfg, prog, inputs, feedback)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
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
		name string
		cfg  Config
		mode FeedbackMode
	}{
		{"original", Config{Strategy: Original}, FeedbackSwap},
		{"plus31d", Config{Strategy: Plus31D}, FeedbackSwap},
		{"islands", Config{Strategy: IslandsOfCores}, FeedbackSwapHalo},
		{"coreislands", Config{Strategy: IslandsOfCores, CoreIslands: true}, FeedbackSwapHalo},
		{"islands-nofuse", Config{Strategy: IslandsOfCores, DisableFusion: true}, FeedbackSwapHalo},
		// Owned barriers (TestOwnedBarriersFollowTheSlots) read the clock
		// while they spin; that must not allocate either.
		{"plus31d-owned", Config{Machine: ownedHostMachine(t), Strategy: Plus31D}, FeedbackSwap},
	} {
		t.Run(arm.name, func(t *testing.T) {
			state := mpdata.NewState(domain)
			state.SetGaussian(16, 16, 4, 3, 1, 0.1)
			state.SetUniformVelocity(0.2, 0.1, 0.05)
			cfg := arm.cfg
			cfg.BlockI = 4
			check(t, cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi, arm.mode)
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
			check(t, Config{Strategy: IslandsOfCores, BlockI: 4}, kp, state.Inputs, state.Feedback, FeedbackSwapHalo)
		})
	}
}
