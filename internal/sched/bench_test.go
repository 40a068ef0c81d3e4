package sched

import "testing"

// benchWorkers mirrors one island of the simulated UV 2000 (8 cores/node), so
// BenchmarkTeamBarrier and BenchmarkTeamRun compare the two synchronization
// mechanisms at the team size the compute backend uses.
const benchWorkers = 8

// BenchmarkTeamBarrier measures one phase crossing of a reusable barrier:
// the per-stage join of the compiled-schedule executor. The workers are
// dispatched once and then meet at the barrier b.N times.
func BenchmarkTeamBarrier(b *testing.B) {
	t := NewTeam(0, 0, benchWorkers, 0)
	defer t.Close()
	bar := NewBarrier(benchWorkers)
	b.ReportAllocs()
	b.ResetTimer()
	dispatchWait(t, func(w int) {
		for i := 0; i < b.N; i++ {
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
