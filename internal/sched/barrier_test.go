package sched

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestBarrierPhases drives many workers through many phases and checks that
// no worker enters phase p+1 before every worker has finished phase p.
func TestBarrierPhases(t *testing.T) {
	const workers = 7
	const phases = 200
	team := NewTeam(0, 0, workers, 0)
	defer team.Close()
	bar := NewBarrier(workers)

	var done [phases]atomic.Int32
	dispatchWait(team, func(w int) {
		for p := 0; p < phases; p++ {
			done[p].Add(1)
			bar.Wait()
			if got := done[p].Load(); got != workers {
				panic("barrier released early")
			}
		}
	})
	for p := range done {
		if done[p].Load() != workers {
			t.Fatalf("phase %d: %d/%d workers finished", p, done[p].Load(), workers)
		}
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	bar := NewBarrier(1)
	for i := 0; i < 3; i++ {
		bar.Wait() // must not block
	}
	if bar.Size() != 1 {
		t.Fatalf("Size = %d, want 1", bar.Size())
	}
}

// TestBarrierAbort poisons a barrier while workers are parked at it: every
// waiter must unwind with a panic instead of deadlocking, and later Waits
// must panic immediately.
func TestBarrierAbort(t *testing.T) {
	const workers = 4
	team := NewTeam(0, 0, workers, 0)
	defer team.Close()
	bar := NewBarrier(workers + 1) // one participant short: all waiters park

	team.Dispatch(func(w int) { bar.Wait() })
	bar.Abort()
	p := team.WaitRecover()
	if p == nil || !strings.Contains(p.(string), "barrier aborted") {
		t.Fatalf("workers did not panic with abort, got %v", p)
	}
	if !bar.Aborted() {
		t.Fatal("Aborted() = false after Abort")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Wait after Abort did not panic")
		}
	}()
	bar.Wait()
}

func TestNewBarrierPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(0)
}

// TestRunFns checks that team i runs fns[i] (the teams differ in size, so a
// function run by the wrong team is counted the wrong number of times) and
// that a length mismatch panics.
func TestRunFns(t *testing.T) {
	s := &Scheduler{}
	for i, core := 0, 0; i < 3; i++ {
		s.Teams = append(s.Teams, NewTeam(i, i, i+1, core))
		core += i + 1
	}
	defer s.Close()

	var counts [3]atomic.Int32
	fns := make([]func(int), 3)
	for i := range fns {
		fns[i] = func(w int) { counts[i].Add(1) }
	}
	const rounds = 5
	for round := 0; round < rounds; round++ {
		s.RunFns(fns)
	}
	for i := range counts {
		if got, want := counts[i].Load(), int32(rounds*(i+1)); got != want {
			t.Fatalf("fns[%d] ran %d times, want %d", i, got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("RunFns with wrong length did not panic")
		}
	}()
	s.RunFns(fns[:2])
}

// TestDispatchWaitAllocFree verifies the steady-state property the compiled
// schedule relies on: dispatching a prebuilt closure allocates nothing.
func TestDispatchWaitAllocFree(t *testing.T) {
	team := NewTeam(0, 0, 4, 0)
	defer team.Close()
	fn := func(w int) {}
	dispatchWait(team, fn) // warm up
	allocs := testing.AllocsPerRun(100, func() {
		team.Dispatch(fn)
		team.Wait()
	})
	if allocs != 0 {
		t.Fatalf("Dispatch+Wait allocates %v per run, want 0", allocs)
	}
}

// TestBarrierWaitDo checks the fused serial-section crossing: the section
// runs exactly once per phase, and its effects are visible to every
// participant on release (the flip publishes them).
func TestBarrierWaitDo(t *testing.T) {
	const workers = 7
	const phases = 200
	team := NewTeam(0, 0, workers, 0)
	defer team.Close()
	bar := NewBarrier(workers)

	var serial atomic.Int32
	dispatchWait(team, func(w int) {
		for p := 0; p < phases; p++ {
			bar.WaitDo(func() { serial.Add(1) })
			if got := serial.Load(); got < int32(p+1) {
				panic("serial section not visible on release")
			}
		}
	})
	if got := serial.Load(); got != phases {
		t.Fatalf("serial section ran %d times, want %d (once per phase)", got, phases)
	}
}

func TestBarrierWaitDoSingleParticipant(t *testing.T) {
	bar := NewBarrier(1)
	ran := 0
	for i := 0; i < 3; i++ {
		bar.WaitDo(func() { ran++ })
	}
	if ran != 3 {
		t.Fatalf("serial section ran %d times, want 3", ran)
	}
}

// TestBarrierWaitDoPanic: a panicking serial section must poison the
// barrier so the waiting teammates unwind instead of parking forever, and
// the last arriver re-raises the original panic value.
func TestBarrierWaitDoPanic(t *testing.T) {
	const workers = 4
	team := NewTeam(0, 0, workers, 0)
	defer team.Close()
	bar := NewBarrier(workers)

	team.Dispatch(func(w int) {
		bar.WaitDo(func() { panic("serial boom") })
	})
	p := team.WaitRecover()
	if p == nil {
		t.Fatal("no panic propagated from the serial section")
	}
	s := p.(string)
	if !strings.Contains(s, "serial boom") && !strings.Contains(s, "barrier aborted") {
		t.Fatalf("unexpected panic %q", s)
	}
	if !bar.Aborted() {
		t.Fatal("barrier not poisoned after serial-section panic")
	}
}
