package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"

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
}

// Lease is a leased pool slot holding an engine for one job. Exactly one of
// Release(reuse) must be called when the job is done: reuse=true returns the
// engine to the schedule cache, reuse=false discards it (poisoned engines —
// failed, aborted or canceled jobs — must not be cached).
type Lease struct {
	pool  *Pool
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
	l.pool.release(l.entry, reuse)
}

// Pool owns the runner slots: at most Capacity engines execute concurrently,
// and idle engines are cached per spec key so repeat jobs skip compilation.
type Pool struct {
	capacity  int
	maxCached int
	factory   EngineFactory

	// tokens holds one value per free slot; Acquire takes one, release
	// returns it. Channel semantics give context-aware blocking for free.
	tokens chan struct{}

	mu     sync.Mutex
	idle   map[CacheKey][]*poolEntry
	nIdle  int
	busy   int
	ticker uint64
	closed bool

	// hits/misses count schedule-cache outcomes; evictions counts cached
	// engines discarded to respect maxCached.
	hits, misses, evictions uint64
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
		tokens:    make(chan struct{}, capacity),
		idle:      make(map[CacheKey][]*poolEntry),
	}
	for i := 0; i < capacity; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Capacity returns the slot count.
func (p *Pool) Capacity() int { return p.capacity }

// Acquire leases a slot and an engine for the spec, blocking until a slot is
// free or the context is done. A cached engine with the same key is a hit;
// otherwise a fresh engine is compiled (a miss).
func (p *Pool) Acquire(ctx context.Context, ns NormSpec) (*Lease, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case _, ok := <-p.tokens:
		if !ok {
			return nil, fmt.Errorf("serve: pool closed")
		}
	}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.returnToken()
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
		p.busy++
		p.hits++
		p.mu.Unlock()
		return &Lease{pool: p, entry: entry, Hit: true}, nil
	}
	p.misses++
	p.busy++
	p.mu.Unlock()

	eng, err := p.factory(ns)
	if err != nil {
		p.mu.Lock()
		p.busy--
		p.mu.Unlock()
		p.returnToken()
		return nil, err
	}
	return &Lease{pool: p, entry: &poolEntry{key: key, ns: ns, engine: eng}}, nil
}

// release returns the slot token and caches or discards the engine.
func (p *Pool) release(entry *poolEntry, reuse bool) {
	var evicted []*poolEntry
	p.mu.Lock()
	p.busy--
	if reuse && !p.closed {
		p.ticker++
		entry.tick = p.ticker
		p.idle[entry.key] = append(p.idle[entry.key], entry)
		p.nIdle++
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
	p.mu.Unlock()
	for _, e := range evicted {
		e.engine.Close()
	}
	p.returnToken()
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
	p.evictions++
	return oldest
}

// returnToken frees a slot. The send happens under the pool mutex so it
// cannot race with Close closing the channel; it never blocks because the
// release/failed-Acquire paths return exactly the tokens they took.
func (p *Pool) returnToken() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	select {
	case p.tokens <- struct{}{}:
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
}

// Stats snapshots the pool.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Capacity:  p.capacity,
		MaxCached: p.maxCached,
		Busy:      p.busy,
		Idle:      p.nIdle,
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
	}
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
	p.nIdle = 0
	// Close the token channel under the mutex: returnToken sends under the
	// same mutex, so a send can never race the close.
	close(p.tokens)
	p.mu.Unlock()
	for _, e := range all {
		e.engine.Close()
	}
}
