package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// ErrQueueFull is the admission-control rejection: the queue is at its
// configured depth, and the client should retry after the hinted delay (on the
// wire: 429 + Retry-After).
type ErrQueueFull struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("serve: job queue full (depth %d), retry after %s", e.Depth, e.RetryAfter)
}

// Answer implements Rejection: 429 with the hinted backoff.
func (e *ErrQueueFull) Answer() (int, int, string) {
	return http.StatusTooManyRequests, RetryAfterSeconds(e.RetryAfter), e.Error()
}

// queue is the bounded FIFO admission queue. Submissions beyond maxDepth are
// rejected (backpressure); dispatchers block in pop until a job or shutdown
// arrives. Canceled jobs are skipped lazily at pop time and eagerly removed
// by remove, so queue positions stay honest.
type queue struct {
	maxDepth   int
	retryAfter time.Duration

	mu     sync.Mutex
	cond   *sync.Cond
	items  []*Job
	closed bool
}

func newQueue(maxDepth int, retryAfter time.Duration) *queue {
	if maxDepth <= 0 {
		maxDepth = 64
	}
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	q := &queue{maxDepth: maxDepth, retryAfter: retryAfter}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits a job or rejects it with ErrQueueFull.
func (q *queue) push(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if len(q.items) >= q.maxDepth {
		return &ErrQueueFull{Depth: q.maxDepth, RetryAfter: q.retryAfter}
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return nil
}

// pop blocks until a job is available (returning the FIFO head) or the queue
// is closed (returning nil and nothing skipped). Jobs whose context is already
// done are skipped and returned to the caller via the skipped slice so the
// server can mark them canceled outside the queue lock — at once, with a nil
// job, when nothing else is queued: whoever canceled them may be waiting for
// exactly that (Server.Close waits for every job before it closes the queue).
func (q *queue) pop() (j *Job, skipped []*Job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.items) > 0 {
			head := q.items[0]
			q.items = q.items[1:]
			if head.ctx.Err() != nil || head.State() != StateQueued {
				skipped = append(skipped, head)
				continue
			}
			return head, skipped
		}
		if q.closed || len(skipped) > 0 {
			return nil, skipped
		}
		q.cond.Wait()
	}
}

// remove withdraws a queued job (cancellation before admission); false if
// the job was not found (already popped).
func (q *queue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it == j {
			q.items = append(q.items[:i], q.items[i+1:]...)
			return true
		}
	}
	return false
}

// position returns the job's 1-based queue position, 0 if not queued.
func (q *queue) position(j *Job) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it == j {
			return i + 1
		}
	}
	return 0
}

// depth returns the number of queued jobs.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// snapshot returns the queued jobs in order.
func (q *queue) snapshot() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, len(q.items))
	copy(out, q.items)
	return out
}

// close wakes every dispatcher; queued jobs still in the slice are left for
// the server's drain logic to cancel.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
