package sched

import (
	"strings"
	"sync/atomic"
	"testing"

	"islands/internal/topology"
)

// dispatchWait runs fn on every worker of the team and joins: one team run.
func dispatchWait(team *Team, fn func(worker int)) {
	team.Dispatch(fn)
	team.Wait()
}

func TestTeamRunVisitsEveryWorker(t *testing.T) {
	team := NewTeam(0, 0, 8, 0)
	defer team.Close()
	var seen [8]int32
	dispatchWait(team, func(w int) { atomic.AddInt32(&seen[w], 1) })
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times, want 1", w, c)
		}
	}
}

func TestTeamRunIsABarrier(t *testing.T) {
	team := NewTeam(0, 0, 4, 0)
	defer team.Close()
	var counter int64
	for round := 0; round < 10; round++ {
		dispatchWait(team, func(w int) { atomic.AddInt64(&counter, 1) })
		// After Wait returns, all 4 increments of this round are visible.
		if got := atomic.LoadInt64(&counter); got != int64(4*(round+1)) {
			t.Fatalf("round %d: counter = %d, want %d", round, got, 4*(round+1))
		}
	}
}

func TestTeamCores(t *testing.T) {
	team := NewTeam(2, 3, 4, 12)
	defer team.Close()
	if team.Node != 3 || team.Size() != 4 {
		t.Fatalf("team metadata wrong: %+v", team)
	}
	for w, c := range team.Cores {
		if c != 12+w {
			t.Fatalf("core[%d] = %d, want %d", w, c, 12+w)
		}
	}
}

func TestSchedulerFromMachine(t *testing.T) {
	m, err := topology.UV2000(3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	defer s.Close()
	if len(s.Teams) != 3 {
		t.Fatalf("scheduler has %d teams, want 3", len(s.Teams))
	}
	// Core IDs are contiguous per node, matching topology.CoreNode.
	cores := 0
	for _, team := range s.Teams {
		for _, c := range team.Cores {
			if m.CoreNode(c) != team.Node {
				t.Fatalf("core %d of team %d maps to node %d", c, team.ID, m.CoreNode(c))
			}
		}
		cores += team.Size()
	}
	if cores != 24 {
		t.Fatalf("scheduler has %d cores, want 24", cores)
	}
}

// TestRunAllCoversAllWorkers checks that every RunFns round runs every (team,
// worker) pair exactly once, and that the machine-wide join makes a round's
// effects visible when RunFns returns.
func TestRunAllCoversAllWorkers(t *testing.T) {
	const teams, workers, rounds = 3, 4, 5
	s := &Scheduler{}
	for i := 0; i < teams; i++ {
		s.Teams = append(s.Teams, NewTeam(i, i, workers, i*workers))
	}
	defer s.Close()

	var seen [teams][workers]atomic.Int32
	fns := make([]func(int), teams)
	for i := range fns {
		fns[i] = func(w int) { seen[i][w].Add(1) }
	}
	for round := 1; round <= rounds; round++ {
		s.RunFns(fns)
		for i := range seen {
			for w := range seen[i] {
				if got := seen[i][w].Load(); got != int32(round) {
					t.Fatalf("after round %d: team %d worker %d ran %d times", round, i, w, got)
				}
			}
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	team := NewTeam(0, 0, 2, 0)
	team.Close()
	team.Close() // must not panic
}

func TestNewTeamPanicsOnZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTeam(0, 0, 0, 0)
}

func TestWorkerPanicPropagates(t *testing.T) {
	team := NewTeam(0, 0, 4, 0)
	defer team.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the worker panic to reach the dispatcher")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "panicked: boom") {
			t.Fatalf("panic payload = %v", r)
		}
	}()
	dispatchWait(team, func(w int) {
		if w == 2 {
			panic("boom")
		}
	})
}
