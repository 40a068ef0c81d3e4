package sched

import (
	"runtime"
	"testing"
	"time"
)

// benchWorkers mirrors one island of the simulated UV 2000 (8 cores/node), so
// BenchmarkTeamBarrier and BenchmarkTeamRun compare the two synchronization
// mechanisms at the team size the compute backend uses.
const benchWorkers = 8

// lateBy is how long the late worker of BenchmarkTeamBarrier's late arms
// computes before each crossing: past a shared barrier's barrierSpin yields,
// well within an owned barrier's ownedSpin.
const lateBy = 20 * time.Microsecond

// BenchmarkTeamBarrier measures one phase crossing of a reusable barrier:
// the per-stage join of the compiled-schedule executor. The workers are
// dispatched once and then meet at the barrier b.N times.
//
// The punctual arms cross with benchWorkers workers and no work between
// crossings. In the late arms a team that fits GOMAXPROCS crosses while one
// worker, a different one each time, busy-waits lateBy before the crossing:
// its teammates outlast the shared barrier's spin, and the next late worker
// is one of them, so its wake is on the critical path. ns/op minus lateBy is
// what a crossing adds — the Go scheduler's wake latency after a park
// (shared), or a few yields (owned).
func BenchmarkTeamBarrier(b *testing.B) {
	for _, mode := range barrierModes {
		b.Run("punctual/"+mode.name, func(b *testing.B) {
			benchBarrier(b, mode.new, benchWorkers, 0)
		})
	}
	for _, mode := range barrierModes {
		b.Run("late/"+mode.name, func(b *testing.B) {
			benchBarrier(b, mode.new, max(2, runtime.GOMAXPROCS(0)), lateBy)
		})
	}
}

// benchBarrier crosses a barrier of n workers b.N times; at crossing i,
// worker i mod n arrives late by late.
func benchBarrier(b *testing.B, newBarrier func(int) *Barrier, n int, late time.Duration) {
	t := NewTeam(0, 0, n, 0)
	defer t.Close()
	bar := newBarrier(n)
	b.ReportAllocs()
	b.ResetTimer()
	dispatchWait(t, func(w int) {
		for i := 0; i < b.N; i++ {
			if late > 0 && i%n == w {
				for start := time.Now(); time.Since(start) < late; {
				}
			}
			bar.Wait()
		}
	})
}

// BenchmarkTeamRun measures one Dispatch+Wait round trip through the team's
// work channels: the once-per-step dispatch of the compiled-schedule
// executor (and the per-stage cost of the executor before it), for
// comparison with BenchmarkTeamBarrier.
func BenchmarkTeamRun(b *testing.B) {
	t := NewTeam(0, 0, benchWorkers, 0)
	defer t.Close()
	fn := func(w int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Dispatch(fn)
		t.Wait()
	}
}
