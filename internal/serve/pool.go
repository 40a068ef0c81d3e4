package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"islands/internal/grid"
	"islands/internal/topology"
)

// DefaultSlots returns the default runner-slot capacity: the host's CPU
// count divided by the cores one simulated work team occupies (a UV 2000
// socket's 8 cores), so concurrently running jobs roughly fill the machine
// without oversubscribing it. Always at least 1.
func DefaultSlots() int {
	m, err := topology.UV2000(1)
	coresPerTeam := 8
	if err == nil && len(m.Nodes) > 0 && m.Nodes[0].Cores > 0 {
		coresPerTeam = m.Nodes[0].Cores
	}
	n := runtime.NumCPU() / coresPerTeam
	if n < 1 {
		n = 1
	}
	return n
}

// poolEntry is one cached engine with its spec key and LRU bookkeeping.
type poolEntry struct {
	key    CacheKey
	ns     NormSpec
	engine Engine
	// tick is the entry's last-use stamp for LRU eviction.
	tick uint64
	// bytes is what the engine holds while idle, and scratch the cells of
	// stage scratch it borrows from its slot's arena for each lease (see
	// slotEngine; both 0 for engines that report neither).
	bytes   int64
	scratch int
}

// slotEngine is an engine that tells the pool its memory: the state it holds
// while idle, and the stage scratch it borrows from the leasing slot's arena.
// The server's default factory builds resident engines that hold no scratch
// of their own; an engine that owns its scratch (NewSolverEngine) borrows 0
// cells and is never bound.
type slotEngine interface {
	idleBytes() int64
	scratchCells() int
	bindScratch(a *grid.Arena)
	unbindScratch()
}

// arenaSlack bounds a slot arena: it never stays above arenaSlack times the
// largest scratch need among the engines cached or leased, so a one-off big
// job's arena is freed once its engine leaves the cache, while a class mix
// whose needs lie within the factor of one another keeps its arenas.
const arenaSlack = 2

// slot is one runner slot, the token a lease holds: the arena whose storage
// every engine leased on it borrows for its stage scratch. Each step writes a
// scratch cell before it reads it, so the arena is never zeroed between the
// engines that take turns on it.
type slot struct {
	arena grid.Arena
	// entry is the engine leased on the slot (nil while free).
	entry *poolEntry
}

// slotHook, when set, sees every slot arena right after it was bound; tests
// use it to poison the storage an engine is lent.
var slotHook func(*grid.Arena)

// Lease is a leased pool slot holding an engine for one job. Exactly one of
// Release(reuse) must be called when the job is done: reuse=true returns the
// engine to the schedule cache, reuse=false discards it (poisoned engines —
// failed, aborted or canceled jobs — must not be cached).
type Lease struct {
	pool  *Pool
	slot  *slot
	entry *poolEntry
	// Hit reports whether the engine came from the schedule cache
	// (compile cost skipped) rather than a fresh build.
	Hit  bool
	done bool
}

// Engine returns the leased engine.
func (l *Lease) Engine() Engine { return l.entry.engine }

// Release returns the slot token and either caches or discards the engine.
func (l *Lease) Release(reuse bool) {
	if l.done {
		return
	}
	l.done = true
	l.pool.release(l.slot, reuse)
}

// Pool owns the runner slots: at most Capacity engines execute concurrently,
// and idle engines are cached per spec key so repeat jobs skip compilation.
// An idle engine holds only its state: each slot carries one arena that lends
// the engine leased on it its stage scratch (slotEngine).
type Pool struct {
	capacity  int
	maxCached int
	factory   EngineFactory

	// tokens holds the free slots; Acquire takes one, release returns it.
	// Channel semantics give context-aware blocking for free. slots is every
	// slot, free or leased.
	tokens chan *slot
	slots  []*slot

	// mu guards the cache, the counters and every slot's entry and arena.
	mu        sync.Mutex
	idle      map[CacheKey][]*poolEntry
	nIdle     int
	idleBytes int64
	busy      int
	ticker    uint64
	closed    bool

	// hits/misses count schedule-cache outcomes; evictions counts cached
	// engines discarded to respect maxCached; arenaGrowths counts slot
	// arenas (re)allocated to fit an engine's scratch.
	hits, misses, evictions, arenaGrowths uint64
}

// NewPool creates a pool of capacity slots caching at most maxCached idle
// engines (0 defaults: DefaultSlots() slots; max(capacity, 8) cached — large
// enough to keep one warm engine per strategy in a mixed workload).
func NewPool(capacity, maxCached int, factory EngineFactory) *Pool {
	if capacity <= 0 {
		capacity = DefaultSlots()
	}
	if maxCached <= 0 {
		maxCached = capacity
		if maxCached < 8 {
			maxCached = 8
		}
	}
	if factory == nil {
		factory = NewSolverEngine
	}
	p := &Pool{
		capacity:  capacity,
		maxCached: maxCached,
		factory:   factory,
		tokens:    make(chan *slot, capacity),
		idle:      make(map[CacheKey][]*poolEntry),
	}
	for i := 0; i < capacity; i++ {
		s := &slot{}
		p.slots = append(p.slots, s)
		p.tokens <- s
	}
	return p
}

// Capacity returns the slot count.
func (p *Pool) Capacity() int { return p.capacity }

// Acquire leases a slot and an engine for the spec, blocking until a slot is
// free or the context is done. A cached engine with the same key is a hit;
// otherwise a fresh engine is compiled (a miss). Either way the engine's
// scratch is bound to the slot's arena before Acquire returns.
func (p *Pool) Acquire(ctx context.Context, ns NormSpec) (*Lease, error) {
	var s *slot
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case tok, ok := <-p.tokens:
		if !ok {
			return nil, fmt.Errorf("serve: pool closed")
		}
		s = tok
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.returnToken(s)
		return nil, fmt.Errorf("serve: pool closed")
	}
	key := ns.Key()
	list := p.idle[key]
	for i := len(list) - 1; i >= 0; i-- {
		entry := list[i]
		// A streamed engine's residency and tile plan depend on the step
		// count, so it serves only jobs of its own; a resident engine
		// advances one step per dispatch and serves jobs of any length.
		if key.Streamed && entry.ns.Steps != ns.Steps {
			continue
		}
		p.idle[key] = append(list[:i], list[i+1:]...)
		if len(p.idle[key]) == 0 {
			delete(p.idle, key)
		}
		p.nIdle--
		p.idleBytes -= entry.bytes
		p.busy++
		p.hits++
		p.leaseLocked(s, entry)
		p.mu.Unlock()
		return &Lease{pool: p, slot: s, entry: entry, Hit: true}, nil
	}
	p.misses++
	p.busy++
	p.mu.Unlock()

	eng, err := p.factory(ns)
	if err != nil {
		p.mu.Lock()
		p.busy--
		p.mu.Unlock()
		p.returnToken(s)
		return nil, err
	}
	entry := &poolEntry{key: key, ns: ns, engine: eng}
	if se, ok := eng.(slotEngine); ok {
		entry.bytes, entry.scratch = se.idleBytes(), se.scratchCells()
	}
	p.mu.Lock()
	p.leaseLocked(s, entry)
	p.mu.Unlock()
	return &Lease{pool: p, slot: s, entry: entry}, nil
}

// leaseLocked puts entry on slot s and lends it the slot arena's storage,
// growing the arena when the engine's scratch does not fit. Caller holds p.mu.
func (p *Pool) leaseLocked(s *slot, entry *poolEntry) {
	s.entry = entry
	if entry.scratch == 0 {
		return
	}
	if s.arena.Cells() < entry.scratch {
		p.arenaGrowths++
	}
	entry.engine.(slotEngine).bindScratch(&s.arena)
	if slotHook != nil {
		slotHook(&s.arena)
	}
}

// release takes the engine off its slot, caches or discards it, and returns
// the slot token.
func (p *Pool) release(s *slot, reuse bool) {
	var evicted []*poolEntry
	p.mu.Lock()
	p.busy--
	entry := s.entry
	s.entry = nil
	if entry.scratch > 0 {
		entry.engine.(slotEngine).unbindScratch()
	}
	if reuse && !p.closed {
		p.ticker++
		entry.tick = p.ticker
		p.idle[entry.key] = append(p.idle[entry.key], entry)
		p.nIdle++
		p.idleBytes += entry.bytes
		for p.nIdle > p.maxCached {
			if victim := p.evictOldestLocked(); victim != nil {
				evicted = append(evicted, victim)
			} else {
				break
			}
		}
	} else {
		evicted = append(evicted, entry)
	}
	p.fitArenasLocked()
	p.mu.Unlock()
	for _, e := range evicted {
		e.engine.Close()
	}
	p.returnToken(s)
}

// largestNeedLocked is the largest scratch need among the engines cached or
// leased. Caller holds p.mu.
func (p *Pool) largestNeedLocked() int {
	need := 0
	for _, list := range p.idle {
		for _, e := range list {
			need = max(need, e.scratch)
		}
	}
	for _, s := range p.slots {
		if s.entry != nil {
			need = max(need, s.entry.scratch)
		}
	}
	return need
}

// fitArenasLocked frees every free slot's arena that is more than
// arenaSlack times the largest scratch need among the engines cached or
// leased; the next engine leased on the slot grows it to its own need. An
// arena in use is fitted when its lease ends. Caller holds p.mu.
func (p *Pool) fitArenasLocked() {
	need := p.largestNeedLocked()
	for _, s := range p.slots {
		if s.entry == nil && s.arena.Cells() > arenaSlack*need {
			s.arena = grid.Arena{}
		}
	}
}

// evictOldestLocked removes the least-recently-used idle entry. Caller holds
// p.mu; the caller closes the returned engine outside the lock.
func (p *Pool) evictOldestLocked() *poolEntry {
	var oldest *poolEntry
	var oldestKey CacheKey
	var oldestIdx int
	for key, list := range p.idle {
		for i, e := range list {
			if oldest == nil || e.tick < oldest.tick {
				oldest, oldestKey, oldestIdx = e, key, i
			}
		}
	}
	if oldest == nil {
		return nil
	}
	list := p.idle[oldestKey]
	p.idle[oldestKey] = append(list[:oldestIdx], list[oldestIdx+1:]...)
	if len(p.idle[oldestKey]) == 0 {
		delete(p.idle, oldestKey)
	}
	p.nIdle--
	p.idleBytes -= oldest.bytes
	p.evictions++
	return oldest
}

// returnToken frees a slot. The send happens under the pool mutex so it
// cannot race with Close closing the channel; it never blocks because the
// release/failed-Acquire paths return exactly the tokens they took.
func (p *Pool) returnToken(s *slot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	select {
	case p.tokens <- s:
	default:
	}
}

// PoolStats is a snapshot of the pool's gauges and counters.
type PoolStats struct {
	Capacity  int
	MaxCached int
	Busy      int
	Idle      int
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// CacheBytes is the state the idle cached engines hold; SlotScratchBytes
	// the capacity of the slots' scratch arenas.
	CacheBytes       int64
	SlotScratchBytes int64
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Capacity:   p.capacity,
		MaxCached:  p.maxCached,
		Busy:       p.busy,
		Idle:       p.nIdle,
		Hits:       p.hits,
		Misses:     p.misses,
		Evictions:  p.evictions,
		CacheBytes: p.idleBytes,
	}
	for _, s := range p.slots {
		st.SlotScratchBytes += int64(s.arena.Cells()) * grid.CellBytes
	}
	return st
}

// Close discards every cached engine and rejects further Acquires. Leased
// engines are closed by their Release (which discards once closed).
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var all []*poolEntry
	for _, list := range p.idle {
		all = append(all, list...)
	}
	p.idle = make(map[CacheKey][]*poolEntry)
	p.nIdle, p.idleBytes = 0, 0
	p.fitArenasLocked()
	// Close the token channel under the mutex: returnToken sends under the
	// same mutex, so a send can never race the close.
	close(p.tokens)
	p.mu.Unlock()
	for _, e := range all {
		e.engine.Close()
	}
}
