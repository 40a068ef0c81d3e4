package exec

import (
	"strings"
	"sync/atomic"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// kstepBombProgram builds a single-stage feedback program (a 7-point
// average, so the one-step extent is nonzero and temporal blocking engages)
// whose kernel panics on the n-th invocation once armed. The caller counts
// invocations with a disarmed run first, then arms a trigger that lands
// mid-way through a k-step block — after at least one island has passed its
// island-local inner-swap barriers.
func kstepBombProgram(t *testing.T, calls *atomic.Int64, armed *atomic.Bool, trigger int64) *stencil.KernelProgram {
	t.Helper()
	kern := func(env *stencil.Env, r grid.Region) {
		if n := calls.Add(1); armed.Load() && n == trigger {
			panic("kstep-kaboom")
		}
		out, in := env.Field("out"), env.Field("in")
		stencil.ForEach(r, func(i, j, k int) {
			avg := in.At(i, j, k) +
				env.AtP(in, i-1, j, k) + env.AtP(in, i+1, j, k) +
				env.AtP(in, i, j-1, k) + env.AtP(in, i, j+1, k) +
				env.AtP(in, i, j, k-1) + env.AtP(in, i, j, k+1)
			out.Set(i, j, k, avg/7)
		})
	}
	kp, err := stencil.BuildProgram("kstep-bomb", []string{"in"}, "out", []stencil.KernelStage{{
		Stage: stencil.Stage{
			Name: "out",
			Inputs: []stencil.Input{{From: "in", Offsets: []stencil.Offset{
				{}, {DI: -1}, {DI: 1}, {DJ: -1}, {DJ: 1}, {DK: -1}, {DK: 1},
			}}},
			Flops: 7,
		},
		Kernel: kern,
	}})
	if err != nil {
		t.Fatal(err)
	}
	kp.Program.Feedback = "in"
	return kp
}

// TestKStepWorkerPanicMidBlock is the temporal-blocking failure-surfacing
// test, run under the race gate: a kernel panic in an inner step of a
// k-step block — when the other islands are spread across island-local
// inner-swap barriers and the global join — must poison the schedule, abort
// every barrier the survivors are parked at, and come back from Run as an
// error carrying the original panic value. The error must stay sticky.
func TestKStepWorkerPanicMidBlock(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(32, 16, 8)
	var calls atomic.Int64
	var armed atomic.Bool
	newRunner := func(prog *stencil.KernelProgram) *Runner {
		t.Helper()
		in := grid.NewField("in", domain)
		in.Fill(1)
		r, err := NewRunner(Config{
			Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
			Steps: 2, BlockI: 8, KSteps: 2,
		}, prog, map[string]*grid.Field{"in": in}, "in")
		if err != nil {
			t.Fatal(err)
		}
		if st := r.Schedule().Stats(); st.KSteps != 2 {
			t.Fatalf("temporal blocking fell back: %q", st.KStepFallbackReason)
		}
		return r
	}

	// Disarmed run: count how many kernel invocations one 2-step block is.
	count := newRunner(kstepBombProgram(t, &calls, &armed, 0))
	if err := count.Run(); err != nil {
		t.Fatal(err)
	}
	count.Close()
	total := calls.Load()
	if total == 0 {
		t.Fatal("disarmed run executed no kernel items")
	}

	// Arm a trigger past the halfway point: at least one island is beyond
	// its first inner step (and so past its island-local swap barriers)
	// when the bomb goes off.
	calls.Store(0)
	armed.Store(true)
	r := newRunner(kstepBombProgram(t, &calls, &armed, total/2+1))
	defer r.Close()
	err = r.Run()
	if err == nil {
		t.Fatal("Run returned nil for a panic inside a k-step block")
	}
	if !strings.Contains(err.Error(), "kstep-kaboom") {
		t.Fatalf("Run error = %q, want the original kernel panic", err)
	}
	if strings.Contains(err.Error(), "barrier aborted") {
		t.Fatalf("Run error = %q, reports a secondary abort instead of the kernel panic", err)
	}
	again := r.Run()
	if again == nil || again.Error() != err.Error() {
		t.Fatalf("second Run error = %v, want sticky %q", again, err)
	}
}

// TestKStepAbortMidBlock cancels a Run from outside while workers are
// parked inside a k-step block, mirroring the serving path's
// cancel/deadline abort: Run must return the abort reason promptly and
// stay poisoned.
func TestKStepAbortMidBlock(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	prog := slowProgram(t, entered, release)
	prog.Program.Feedback = "in"
	in := grid.NewField("in", grid.Sz(32, 16, 8))
	in.Fill(1)
	r, err := NewRunner(Config{
		Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp,
		Steps: 4, BlockI: 8, KSteps: 4,
	}, prog, map[string]*grid.Field{"in": in}, "in")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.Schedule().Stats(); st.KSteps != 4 {
		t.Fatalf("temporal blocking fell back: %q", st.KStepFallbackReason)
	}

	errc := make(chan error, 1)
	go func() { errc <- r.Run() }()
	<-entered
	r.Abort("canceled mid-block")
	close(release)
	runErr := <-errc
	if runErr == nil {
		t.Fatal("Run returned nil after Abort mid-block")
	}
	if !strings.Contains(runErr.Error(), "canceled mid-block") {
		t.Fatalf("Run error = %q, want the abort reason", runErr)
	}
	if again := r.Run(); again == nil || again.Error() != runErr.Error() {
		t.Fatalf("second Run error = %v, want sticky %q", again, runErr)
	}
}
