package exec

import (
	"fmt"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// runKStep runs a configuration and returns the final psi plus the compiled
// schedule stats, failing the test on any runner error.
func runKStep(t *testing.T, cfg Config, domain grid.Size) (*grid.Field, ScheduleStats) {
	t.Helper()
	state := freshState(domain)
	runner, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	st := runner.Schedule().Stats()
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	runner.SyncFeedback()
	return state.Psi, st
}

// TestKStepMatchesReference is the tentpole equivalence test: temporally
// blocked island execution must stay bit-identical to the sequential
// reference for every k, across island/core-island strategies, even and odd
// shapes, and step counts with and without a remainder sub-block.
func TestKStepMatchesReference(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		domain grid.Size
		core   bool
		k      int
		steps  int
		blockI int
	}{
		// MPDATA's one-step psi extent is 3 per face, so islands (parts
		// split along i) need parts >= 3k wide and core sub-islands (parts
		// further split along j across 8 workers) need NJ >= 24k.
		{"islands-k2-rem", grid.Sz(48, 20, 8), false, 2, 5, 7},
		{"islands-k3-rem", grid.Sz(48, 20, 8), false, 3, 5, 7},
		{"islands-k4-exact", grid.Sz(48, 20, 8), false, 4, 4, 7},
		{"islands-k4-rem", grid.Sz(48, 20, 8), false, 4, 7, 7},
		{"islands-odd-k2", grid.Sz(49, 19, 7), false, 2, 5, 6},
		{"islands-odd-k3", grid.Sz(49, 19, 7), false, 3, 7, 6},
		{"core-islands-k2", grid.Sz(32, 48, 6), true, 2, 5, 5},
		{"core-islands-odd-k2", grid.Sz(33, 49, 5), true, 2, 3, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, want := referenceMPDATA(tc.domain, tc.steps)
			cfg := Config{
				Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
				Steps: tc.steps, BlockI: tc.blockI, CoreIslands: tc.core, KSteps: tc.k,
			}
			got, st := runKStep(t, cfg, tc.domain)
			if st.KSteps != tc.k {
				t.Fatalf("ksteps = %d (fallback: %q), want %d", st.KSteps, st.KStepFallbackReason, tc.k)
			}
			if wantRem := tc.steps % tc.k; st.RemainderSteps != wantRem {
				t.Fatalf("remainder steps = %d, want %d", st.RemainderSteps, wantRem)
			}
			if d := grid.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("max diff vs reference %g, want exact match", d)
			}
		})
	}
}

// TestKStepIdenticalToK1 pins bit-identity between temporally blocked and
// step-at-a-time execution of the same configuration, and that an explicit
// KSteps=1 compiles exactly the schedule the zero value does.
func TestKStepIdenticalToK1(t *testing.T) {
	m2, _ := topology.UV2000(2)
	domain := grid.Sz(48, 20, 8)
	base := Config{
		Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
		Steps: 6, BlockI: 7,
	}
	ref, refStats := runKStep(t, base, domain)

	one := base
	one.KSteps = 1
	got1, oneStats := runKStep(t, one, domain)
	if d := grid.MaxAbsDiff(ref, got1); d != 0 {
		t.Errorf("KSteps=1 differs from zero value by %g", d)
	}
	if fmt.Sprintf("%+v", oneStats) != fmt.Sprintf("%+v", refStats) {
		t.Errorf("KSteps=1 stats differ:\n  %+v\n  %+v", oneStats, refStats)
	}

	for _, k := range []int{2, 3, 4} {
		cfg := base
		cfg.KSteps = k
		got, st := runKStep(t, cfg, domain)
		if st.KSteps != k {
			t.Fatalf("k=%d fell back: %q", k, st.KStepFallbackReason)
		}
		if d := grid.MaxAbsDiff(ref, got); d != 0 {
			t.Errorf("k=%d differs from k=1 by %g", k, d)
		}
	}
}

// TestKStepPeriodicSingleIsland: with one island spanning the whole domain
// there is no mid-block ownership crossing, so temporal blocking composes
// with the periodic boundary and must match the sequential periodic solver.
// BlockI splits the domain into several cache blocks on purpose: periodic
// wrap reads across concurrent blocks are made reference-exact by the wrap
// bands (wrap.go), and this pins that they compose with temporal blocking.
func TestKStepPeriodicSingleIsland(t *testing.T) {
	domain := grid.Sz(24, 16, 6)
	const steps = 5
	state := mpdata.NewState(domain)
	state.SetGaussian(12, 8, 3, 2, 1, 0.1)
	state.SetUniformVelocity(0.3, -0.2, 0.1)
	solver, err := mpdata.NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	solver.Step(steps)
	want := state.Psi.Clone()

	m1, _ := topology.UV2000(1)
	par := mpdata.NewState(domain)
	par.SetGaussian(12, 8, 3, 2, 1, 0.1)
	par.SetUniformVelocity(0.3, -0.2, 0.1)
	runner, err := NewRunner(Config{
		Machine: m1, Strategy: IslandsOfCores, Boundary: stencil.Periodic,
		Steps: steps, BlockI: 7, KSteps: 2,
	}, mpdata.NewProgram(), par.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if st := runner.Schedule().Stats(); st.KSteps != 2 {
		t.Fatalf("periodic single island fell back: %q", st.KStepFallbackReason)
	}
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	runner.SyncFeedback()
	if d := grid.MaxAbsDiff(want, par.Psi); d != 0 {
		t.Fatalf("periodic k=2: max diff %g", d)
	}
}

// TestKStepScheduleShape inspects the compiled k-block: per-inner-step phase
// labels, the inner-swap synthetic phase, swap item counts, and the widened
// halo exchange.
func TestKStepScheduleShape(t *testing.T) {
	m2, _ := topology.UV2000(2)
	domain := grid.Sz(48, 20, 8)
	state := freshState(domain)
	runner, err := NewRunner(Config{
		Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
		Steps: 10, BlockI: 7, KSteps: 4,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	st := runner.Schedule().Stats()
	if st.KSteps != 4 || st.KStepFallbackReason != "" {
		t.Fatalf("ksteps = %d (%q), want 4", st.KSteps, st.KStepFallbackReason)
	}
	if st.RemainderSteps != 2 {
		t.Fatalf("remainder = %d, want 2 (10 mod 4)", st.RemainderSteps)
	}
	// 2 islands, 3 inner transitions each: one swap item per island per
	// transition in the main block.
	if want := 2 * 3; st.SwapItems != want {
		t.Fatalf("swap items = %d, want %d", st.SwapItems, want)
	}
	if st.Feedback != FeedbackSwapHalo {
		t.Fatalf("feedback mode = %v, want swap+halo", st.Feedback)
	}
	labels := runner.Schedule().PhaseLabels()
	joined := strings.Join(labels, "|")
	for _, want := range []string{"@-3", "@-2", "@-1", "inner-swap", "global-join", "halo-exchange"} {
		if !strings.Contains(joined, want) {
			t.Errorf("phase labels missing %q: %s", want, joined)
		}
	}
	// d=0 labels must be the plain (k=1) labels, without any suffix.
	for _, l := range labels {
		if strings.HasSuffix(l, "@-0") {
			t.Errorf("unexpected @-0 label %q", l)
		}
	}
	// The k-step halo exchange must be strictly wider than the one-step one.
	one, err := NewRunner(Config{
		Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
		Steps: 10, BlockI: 7,
	}, mpdata.NewProgram(), freshState(domain).InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if oneBytes := one.Schedule().Stats().HaloBytes; st.HaloBytes <= oneBytes {
		t.Errorf("k=4 halo bytes %d not wider than k=1's %d", st.HaloBytes, oneBytes)
	}

	// The schedule report names the block structure and widened halo.
	desc := runner.DescribeSchedule()
	for _, want := range []string{"4 inner steps between global joins", "2-step remainder", "widened halo"} {
		if !strings.Contains(desc, want) {
			t.Errorf("DescribeSchedule missing %q:\n%s", want, desc)
		}
	}
}

// TestKStepFallbackReasons pins the loud-fallback rule: infeasible requests
// run at k=1 and record why, and CheckKSteps surfaces the same reason as an
// error for up-front validation.
func TestKStepFallbackReasons(t *testing.T) {
	m2, _ := topology.UV2000(2)
	prog := mpdata.NewProgram()
	cases := []struct {
		name   string
		cfg    Config
		domain grid.Size
		want   string
	}{
		{
			"periodic-multi-island",
			Config{Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Periodic, Steps: 4, KSteps: 2, BlockI: 7},
			grid.Sz(48, 20, 8),
			"periodic wrap along i crosses island ownership mid-block",
		},
		{
			"part-too-narrow",
			Config{Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 4, KSteps: 4, BlockI: 5},
			grid.Sz(20, 20, 8),
			"narrower than the 12-cell step halo",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			state := freshState(tc.domain)
			runner, err := NewRunner(tc.cfg, prog, state.InputMap(), mpdata.InPsi)
			if err != nil {
				t.Fatal(err)
			}
			defer runner.Close()
			st := runner.Schedule().Stats()
			if st.KSteps != 1 {
				t.Fatalf("ksteps = %d, want fallback to 1", st.KSteps)
			}
			if !strings.Contains(st.KStepFallbackReason, tc.want) {
				t.Fatalf("fallback reason %q does not contain %q", st.KStepFallbackReason, tc.want)
			}
			if err := runner.Run(); err != nil {
				t.Fatal(err)
			}
			err = CheckKSteps(tc.cfg, &prog.Program, tc.domain)
			if err == nil {
				t.Fatal("CheckKSteps accepted an infeasible k")
			}
			wantPrefix := fmt.Sprintf("exec: ksteps=%d falls back to 1: ", tc.cfg.KSteps)
			if !strings.HasPrefix(err.Error(), wantPrefix) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckKSteps error %q, want prefix %q and reason %q", err, wantPrefix, tc.want)
			}
		})
	}
	// A feasible request passes the same check.
	ok := Config{Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 4, KSteps: 4, BlockI: 7}
	if err := CheckKSteps(ok, &prog.Program, grid.Sz(48, 20, 8)); err != nil {
		t.Fatalf("CheckKSteps rejected a feasible k: %v", err)
	}
	// KSteps outside the islands strategy is a configuration error.
	bad := Config{Machine: m2, Strategy: Plus31D, Boundary: stencil.Clamp, Steps: 4, KSteps: 2}
	state := freshState(grid.Sz(48, 20, 8))
	if _, err := NewRunner(bad, prog, state.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected validation error for KSteps with Plus31D")
	}
	neg := Config{Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 4, KSteps: -1}
	if _, err := NewRunner(neg, prog, state.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected validation error for negative KSteps")
	}
}

// TestKStepOnStepEnd pins the block-granular hook contract: OnStepEnd fires
// once per k-block (and once for the remainder) with the index of the last
// completed step, and the synced feedback it observes matches the reference
// at that step.
func TestKStepOnStepEnd(t *testing.T) {
	m2, _ := topology.UV2000(2)
	domain := grid.Sz(48, 20, 8)
	const steps, k = 8, 3
	state := freshState(domain)
	runner, err := NewRunner(Config{
		Machine: m2, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
		Steps: steps, BlockI: 7, KSteps: k,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if st := runner.Schedule().Stats(); st.KSteps != k {
		t.Fatalf("fell back: %q", st.KStepFallbackReason)
	}
	var got []int
	runner.OnStepEnd = func(step int) { got = append(got, step) }
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 5, 7} // blocks of 3, 3, then the 2-step remainder
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("OnStepEnd steps = %v, want %v", got, want)
	}
}
