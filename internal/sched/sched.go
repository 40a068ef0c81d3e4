// Package sched is the proprietary scheduler of the paper's §5: OpenMP is
// used there only to create threads and control their affinity, while a
// custom scheduler manages all parallel computations. Here, goroutines play
// the role of threads; affinity is logical (core IDs mapped to the simulated
// machine's NUMA nodes), because the Go runtime cannot pin OS threads to
// cores — see DESIGN.md §2 for the substitution argument. The scheduler
// provides one work team per island with SPMD dispatch within it, one
// per-team function dispatch joined across the machine (RunFns), and the
// reusable phase barriers the compiled schedules synchronize on.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/topology"
)

// barrierSpin is how many cooperative yields a worker attempts before
// parking on the barrier's condition variable. Workers of one island are
// expected to arrive close together (they just finished equal chunks of the
// same stage), so a short spin usually avoids the sleep/wake round trip; the
// blocking fallback keeps oversubscribed machines (more workers than
// GOMAXPROCS) from burning the scheduler.
const barrierSpin = 32

// Barrier is a reusable sense-reversing phase barrier: n participants call
// Wait repeatedly, and each call returns only once all n have arrived at the
// same phase. Unlike a Team dispatch+join, a phase crossing performs no
// channel operations and no allocations — it is the cheap
// per-stage synchronization point of a compiled execution schedule.
//
// Abort poisons the barrier: it releases every current and future waiter by
// panicking in them, so a panicking worker cannot strand its teammates at
// the next phase.
type Barrier struct {
	n       int
	gen     atomic.Uint32
	arrived atomic.Int32
	aborted atomic.Bool
	mu      sync.Mutex
	cond    *sync.Cond
}

// NewBarrier creates a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("sched: barrier needs at least one participant")
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Size returns the number of participants.
func (b *Barrier) Size() int { return b.n }

// Wait blocks until all participants have arrived at the current phase.
// The generation counter is loaded before registering the arrival: a
// participant can only be calling Wait for the phase it has not yet passed,
// so the loaded generation is exactly the phase it arrives at, and the flip
// (performed by the last arriver) cannot happen before its own arrival.
//
// Abort semantics: a Wait that begins after Abort panics immediately; a Wait
// concurrent with Abort either panics or completes its phase normally (when
// its release strictly preceded the abort) — but it never deadlocks. The
// last arriver re-checks the abort flag after performing the flip, so a
// barrier aborted between its entry check and its release does not let it
// escape while its (aborting) teammates unwind.
func (b *Barrier) Wait() {
	b.wait(false, nil)
}

// WaitDo is Wait with a serial section fused into the crossing: the last
// arriver runs f before flipping the generation, so every participant
// observes f's effects on release — one crossing instead of the
// barrier/serial-work/barrier sandwich. The happens-before edge is the
// generation flip itself: f's writes precede the atomic flip in the last
// arriver, and spinning or parked waiters load the flipped generation before
// returning. If f panics, the barrier is aborted (teammates unwind with
// "barrier aborted") and the panic is re-raised in the last arriver.
func (b *Barrier) WaitDo(f func()) {
	b.wait(false, f)
}

// WaitDoProfiled is WaitDo with the wall-clock accounting of WaitProfiled.
func (b *Barrier) WaitDoProfiled(f func()) (spin, park time.Duration) {
	return b.wait(true, f)
}

// wait implements Wait and, when timed, reports how the crossing was spent:
// time spinning (cooperative yields) and time parked on the condition
// variable. With timed=false no clocks are read at all — the plain Wait path
// of the disabled-profiler executor stays exactly as cheap as before.
func (b *Barrier) wait(timed bool, f func()) (spin, park time.Duration) {
	if b.aborted.Load() {
		panic("sched: barrier aborted")
	}
	if b.n == 1 {
		if f != nil {
			b.runSerial(f)
		}
		return 0, 0
	}
	gen := b.gen.Load()
	if int(b.arrived.Add(1)) == b.n {
		// Last arriver: run the serial section (if any) before the flip
		// publishes it, reset the count for the next phase, then flip
		// the generation under the mutex so parked waiters cannot miss
		// the wakeup.
		if f != nil {
			b.runSerial(f)
		}
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		// An abort that raced with this release must not let the
		// releasing participant continue as if the phase succeeded.
		if b.aborted.Load() {
			panic("sched: barrier aborted")
		}
		return 0, 0
	}
	var start time.Time
	for spins := 0; spins < barrierSpin; spins++ {
		if b.gen.Load() != gen {
			if b.aborted.Load() {
				panic("sched: barrier aborted")
			}
			if timed && spins > 0 {
				spin = time.Since(start)
			}
			return spin, 0
		}
		if timed && spins == 0 {
			start = time.Now()
		}
		runtime.Gosched()
	}
	var parkStart time.Time
	if timed {
		parkStart = time.Now()
		spin = parkStart.Sub(start)
	}
	b.mu.Lock()
	// Re-check the abort flag under the mutex: an Abort that completed
	// between the spin loop and the park would otherwise have already
	// broadcast, leaving a late arriver parked forever.
	for b.gen.Load() == gen && !b.aborted.Load() {
		b.cond.Wait()
	}
	b.mu.Unlock()
	if timed {
		park = time.Since(parkStart)
	}
	if b.aborted.Load() {
		panic("sched: barrier aborted")
	}
	return spin, park
}

// WaitProfiled is Wait with wall-clock accounting: it additionally returns
// the time spent spinning (cooperative yields) and the time spent parked on
// the condition variable. The fast path — teammates already arrived when
// this participant checked — reads no clocks at all.
func (b *Barrier) WaitProfiled() (spin, park time.Duration) {
	return b.wait(true, nil)
}

// runSerial runs a WaitDo serial section, converting a panic in it into a
// barrier abort (releasing the teammates to unwind) before re-raising.
func (b *Barrier) runSerial(f func()) {
	defer func() {
		if r := recover(); r != nil {
			b.Abort()
			panic(r)
		}
	}()
	f()
}

// Abort poisons the barrier and releases every waiter (current and future)
// by panicking in them. It is called when a participant dies mid-phase, so
// the survivors unwind instead of deadlocking at the next Wait. The flag and
// the generation bump are published under the barrier's mutex, so a waiter
// that checked the generation under the same mutex cannot park after the
// abort's broadcast (it either sees the flag or receives the wakeup).
func (b *Barrier) Abort() {
	b.mu.Lock()
	b.aborted.Store(true)
	b.gen.Add(1)
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Aborted reports whether the barrier has been poisoned.
func (b *Barrier) Aborted() bool { return b.aborted.Load() }

// Team is a fixed group of workers (one per core of an island) executing
// SPMD regions: Dispatch hands a function to every worker, Wait (or
// WaitRecover) joins them.
type Team struct {
	ID int
	// Node is the NUMA node this team is bound to (logical affinity).
	Node int
	// Cores lists the global core IDs of the team's workers.
	Cores []int

	// work[w] delivers dispatches to worker w; per-worker channels
	// guarantee every worker executes each SPMD region exactly once.
	work []chan func(worker int)
	wg   sync.WaitGroup
	quit chan struct{}
	once sync.Once
	// panicked holds the first panic value recovered in a worker; Wait
	// re-panics with it on the dispatching goroutine, so a panicking
	// kernel fails the caller instead of killing the process from an
	// anonymous goroutine.
	panicked atomic.Value
}

// NewTeam creates a team of n workers bound (logically) to the given node,
// with global core IDs starting at firstCore.
func NewTeam(id, node, n, firstCore int) *Team {
	if n <= 0 {
		panic("sched: team needs at least one worker")
	}
	t := &Team{
		ID:   id,
		Node: node,
		quit: make(chan struct{}),
	}
	t.Cores = make([]int, n)
	t.work = make([]chan func(worker int), n)
	for w := 0; w < n; w++ {
		t.Cores[w] = firstCore + w
		t.work[w] = make(chan func(worker int), 1)
	}
	for w := 0; w < n; w++ {
		go t.worker(w)
	}
	return t
}

// Size returns the number of workers.
func (t *Team) Size() int { return len(t.Cores) }

func (t *Team) worker(w int) {
	for {
		select {
		case fn := <-t.work[w]:
			t.runOne(fn, w)
		case <-t.quit:
			return
		}
	}
}

// runOne executes one dispatch, converting worker panics into a stored
// value so the join can re-raise them.
func (t *Team) runOne(fn func(worker int), w int) {
	defer t.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			t.panicked.CompareAndSwap(nil, fmt.Sprintf("sched: worker %d of team %d panicked: %v", w, t.ID, r))
		}
	}()
	fn(w)
}

// Dispatch sends fn to every worker without waiting for completion. Sending
// an existing func value performs no allocation, so a caller holding
// precompiled per-team closures can drive the whole machine alloc-free.
// Every Dispatch must be paired with exactly one Wait before the next
// Dispatch on the same team.
func (t *Team) Dispatch(fn func(worker int)) {
	t.wg.Add(t.Size())
	for w := 0; w < t.Size(); w++ {
		t.work[w] <- fn
	}
}

// Wait joins a Dispatch, re-raising the first worker panic. The team is
// poisoned afterwards (shared state under a panicking parallel region is
// undefined): every later Wait re-raises the same panic.
func (t *Team) Wait() {
	t.wg.Wait()
	if p := t.panicked.Load(); p != nil {
		panic(p)
	}
}

// WaitRecover joins a Dispatch and returns the first worker panic value (or
// nil) instead of re-raising, so a multi-team driver can join every team
// before propagating a failure.
func (t *Team) WaitRecover() any {
	t.wg.Wait()
	return t.panicked.Load()
}

// Close terminates the team's workers. The team cannot be reused.
func (t *Team) Close() {
	t.once.Do(func() { close(t.quit) })
}

// Scheduler owns the machine's work teams: one team per NUMA node, with one
// worker per core, mirroring the paper's islands-of-cores mapping where
// neighbouring domain parts sit on adjacent processors.
type Scheduler struct {
	Teams []*Team
}

// New builds a scheduler for the given machine.
func New(m *topology.Machine) *Scheduler {
	s := &Scheduler{}
	core := 0
	for _, n := range m.Nodes {
		s.Teams = append(s.Teams, NewTeam(n.ID, n.ID, n.Cores, core))
		core += n.Cores
	}
	return s
}

// RunFns dispatches fns[t] to every worker of team t and joins the whole
// machine. With closures precompiled once (per team, not per call), a RunFns
// round performs no allocations — it is the steady-state dispatch of the
// compiled-schedule executor: one round per time step, with all per-stage
// synchronization handled by Barriers inside the worker functions.
func (s *Scheduler) RunFns(fns []func(worker int)) {
	if len(fns) != len(s.Teams) {
		panic(fmt.Sprintf("sched: RunFns got %d fns for %d teams", len(fns), len(s.Teams)))
	}
	for i, t := range s.Teams {
		t.Dispatch(fns[i])
	}
	// Join every team before re-raising the first recorded panic, so no
	// dispatch is left dangling.
	var p any
	for _, t := range s.Teams {
		if r := t.WaitRecover(); r != nil && p == nil {
			p = r
		}
	}
	if p != nil {
		panic(p)
	}
}

// Close terminates all teams.
func (s *Scheduler) Close() {
	for _, t := range s.Teams {
		t.Close()
	}
}
