package serve

import (
	"errors"
	"testing"
	"time"
)

func qjob(t *testing.T, id string) *Job {
	t.Helper()
	spec := Spec{Grid: "16x8x4", Steps: 1, Processors: 1}
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return newJob(id, spec, ns, time.Now())
}

func TestQueueFIFOAndPositions(t *testing.T) {
	q := newQueue(3, time.Second)
	a, b, c := qjob(t, "a"), qjob(t, "b"), qjob(t, "c")
	for _, j := range []*Job{a, b, c} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.position(a); got != 1 {
		t.Fatalf("position(a) = %d, want 1", got)
	}
	if got := q.position(c); got != 3 {
		t.Fatalf("position(c) = %d, want 3", got)
	}
	if got := q.depth(); got != 3 {
		t.Fatalf("depth = %d, want 3", got)
	}

	j, skipped := q.pop()
	if j != a || len(skipped) != 0 {
		t.Fatalf("pop = %v (skipped %d), want job a", j, len(skipped))
	}
	if got := q.position(c); got != 2 {
		t.Fatalf("position(c) after pop = %d, want 2", got)
	}
}

func TestQueueFullRejection(t *testing.T) {
	q := newQueue(2, 3*time.Second)
	if err := q.push(qjob(t, "a")); err != nil {
		t.Fatal(err)
	}
	if err := q.push(qjob(t, "b")); err != nil {
		t.Fatal(err)
	}
	err := q.push(qjob(t, "c"))
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("push into full queue = %v, want ErrQueueFull", err)
	}
	if full.Depth != 2 || full.RetryAfter != 3*time.Second {
		t.Fatalf("ErrQueueFull = %+v, want depth 2 retry 3s", full)
	}
}

func TestQueuePopSkipsCanceled(t *testing.T) {
	q := newQueue(4, time.Second)
	a, b := qjob(t, "a"), qjob(t, "b")
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b); err != nil {
		t.Fatal(err)
	}
	a.Cancel("test")
	j, skipped := q.pop()
	if j != b {
		t.Fatalf("pop = %v, want job b", j)
	}
	if len(skipped) != 1 || skipped[0] != a {
		t.Fatalf("skipped = %v, want [a]", skipped)
	}
}

// TestQueuePopHandsSkippedOverBeforeBlocking: a canceled job that was the only
// one queued comes back from pop at once, not when the next job or the close
// arrives — Server.Close cancels every job and then waits for the dispatchers
// to finish them before it closes the queue, so a pop that held on to its
// skipped jobs while it waited deadlocked the shutdown (seen as
// TestFleetFailureInjection hanging in Server.Close under -race).
func TestQueuePopHandsSkippedOverBeforeBlocking(t *testing.T) {
	q := newQueue(4, time.Second)
	a := qjob(t, "a")
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	a.Cancel("test")
	type popped struct {
		j       *Job
		skipped []*Job
	}
	done := make(chan popped, 1)
	go func() {
		j, skipped := q.pop()
		done <- popped{j, skipped}
	}()
	select {
	case p := <-done:
		if p.j != nil || len(p.skipped) != 1 || p.skipped[0] != a {
			t.Fatalf("pop = %v, skipped %v; want no job and [a]", p.j, p.skipped)
		}
	case <-time.After(2 * time.Second):
		q.close()
		t.Fatal("pop kept the canceled job to itself and blocked")
	}
}

func TestQueueRemove(t *testing.T) {
	q := newQueue(4, time.Second)
	a, b := qjob(t, "a"), qjob(t, "b")
	if err := q.push(a); err != nil {
		t.Fatal(err)
	}
	if err := q.push(b); err != nil {
		t.Fatal(err)
	}
	if !q.remove(a) {
		t.Fatal("remove(a) = false, want true")
	}
	if q.remove(a) {
		t.Fatal("second remove(a) = true, want false")
	}
	if got := q.depth(); got != 1 {
		t.Fatalf("depth after remove = %d, want 1", got)
	}
}

func TestQueueCloseWakesPop(t *testing.T) {
	q := newQueue(2, time.Second)
	done := make(chan *Job, 1)
	go func() {
		j, _ := q.pop()
		done <- j
	}()
	time.Sleep(10 * time.Millisecond)
	q.close()
	select {
	case j := <-done:
		if j != nil {
			t.Fatalf("pop after close = %v, want nil", j)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pop did not return after close")
	}
}

func TestQueuePushAfterCloseIsDraining(t *testing.T) {
	q := newQueue(2, time.Second)
	q.close()
	if err := q.push(qjob(t, "a")); !errors.Is(err, ErrDraining) {
		t.Fatalf("push after close = %v, want ErrDraining", err)
	}
}
