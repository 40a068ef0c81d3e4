package sched

import (
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// barrierModes are the two park paths: every abort and panic test runs under
// both.
var barrierModes = []struct {
	name string
	new  func(n int) *Barrier
}{{"shared", NewBarrier}, {"owned", NewOwnedBarrier}}

// TestBarrierAbortUnderLoad fires Abort while a full team is crossing the
// barrier as fast as it can, across many interleavings: workers mid-spin,
// parked, registering their arrival, or taking the last-arriver release
// path. Every worker must unwind with the abort panic — none may deadlock
// (the test would time out) and none may sail past an abort that raced with
// its own release. Runs under -race via the race-core gate.
func TestBarrierAbortUnderLoad(t *testing.T) {
	for _, mode := range barrierModes {
		t.Run(mode.name, func(t *testing.T) { testBarrierAbortUnderLoad(t, mode.new) })
	}
}

func testBarrierAbortUnderLoad(t *testing.T, newBarrier func(int) *Barrier) {
	const workers = 8
	const rounds = 60
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < rounds; round++ {
		team := NewTeam(0, 0, workers, 0)
		bar := newBarrier(workers)
		team.Dispatch(func(w int) {
			for {
				// Jittered busy work desynchronizes the arrivals so
				// aborts land in every stage of the crossing.
				for n := 0; n < w*13%7; n++ {
					runtime.Gosched()
				}
				bar.Wait()
			}
		})
		// Let the workers cross a random number of phases, then poison.
		if d := rng.Intn(3); d > 0 {
			time.Sleep(time.Duration(d*rng.Intn(50)) * time.Microsecond)
		}
		bar.Abort()
		p := team.WaitRecover()
		if p == nil {
			t.Fatalf("round %d: workers returned without the abort panic", round)
		}
		if !strings.Contains(p.(string), "barrier aborted") {
			t.Fatalf("round %d: unexpected worker panic %v", round, p)
		}
		team.Close()
	}
}

// TestBarrierAbortLateArriver checks the late-arrival path explicitly: a
// participant that calls Wait after Abort has completed must panic
// immediately rather than park forever waiting for a broadcast that already
// happened.
func TestBarrierAbortLateArriver(t *testing.T) {
	for _, mode := range barrierModes {
		t.Run(mode.name, func(t *testing.T) {
			bar := mode.new(3)
			bar.Abort()
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				bar.Wait()
			}()
			select {
			case p := <-done:
				if p == nil {
					t.Fatal("Wait after Abort returned normally")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Wait after Abort deadlocked")
			}
		})
	}
}

// TestBarrierWaitProfiledMatchesWait drives a team through phases with the
// profiled wait and checks the accounting is sane: the barrier still
// synchronizes correctly, and the reported spin/park components are
// non-negative.
func TestBarrierWaitProfiledMatchesWait(t *testing.T) {
	for _, mode := range barrierModes {
		t.Run(mode.name, func(t *testing.T) {
			const workers = 6
			const phases = 100
			team := NewTeam(0, 0, workers, 0)
			defer team.Close()
			bar := mode.new(workers)

			var done [phases]atomic.Int32
			errs := make(chan string, workers)
			dispatchWait(team, func(w int) {
				for p := 0; p < phases; p++ {
					done[p].Add(1)
					spin, park := bar.WaitProfiled()
					if spin < 0 || park < 0 {
						errs <- "negative wait component"
						return
					}
					if done[p].Load() != workers {
						errs <- "barrier released early"
						return
					}
				}
			})
			close(errs)
			if msg, ok := <-errs; ok {
				t.Fatal(msg)
			}
		})
	}
}
