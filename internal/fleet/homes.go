package fleet

import "slices"

// homes is the router's sticky key→home table: which replica keeps the warm
// engine of each cache key. The ring alone places keys without regard to how
// many each replica can keep warm — 16 job classes over two 8-entry engine
// caches split 10/6 on most rings, and the replica holding 10 evicts and
// recompiles all day. homes keeps the ring's order of preference but gives a
// replica no more keys than the cache capacity it advertises
// (serve.ReplicaStats.CacheCapacity), and remembers the choice so a key stays
// where its engine is. The table holds at most the fleet's summed capacities.
type homes struct {
	byKey map[uint64]*home
	load  map[string]int // keys homed per member
	clock uint64
}

type home struct {
	member string
	used   uint64 // clock at the key's last placement: LRU order
}

func newHomes() *homes {
	return &homes{byKey: map[uint64]*home{}, load: map[string]int{}}
}

// resolve returns the key's home among order — the key's ring successors that
// are in the ring now, owner first. capacity reports a member's advertised
// cache capacity, 0 when it has advertised none.
//
// A key whose remembered home is in order keeps it. A new key, or one whose
// home left the ring, is homed on the first member of order with room; a
// member of unknown capacity always has room and is not remembered, so a
// fleet that advertises nothing is placed by the plain ring. When every cache
// is spoken for, the ring owner takes the key in place of the key it has
// placed least recently.
func (h *homes) resolve(key uint64, order []string, capacity func(member string) int) string {
	if len(order) == 0 {
		return ""
	}
	h.clock++
	if e := h.byKey[key]; e != nil {
		if slices.Contains(order, e.member) {
			e.used = h.clock
			return e.member
		}
		h.forget(key)
	}
	for _, name := range order {
		c := capacity(name)
		if c <= 0 {
			return name
		}
		if h.load[name] < c {
			h.remember(key, name)
			return name
		}
	}
	owner := order[0]
	var lru uint64
	oldest := h.clock
	for k, e := range h.byKey {
		if e.member == owner && e.used < oldest {
			lru, oldest = k, e.used
		}
	}
	h.forget(lru)
	h.remember(key, owner)
	return owner
}

func (h *homes) remember(key uint64, member string) {
	h.byKey[key] = &home{member: member, used: h.clock}
	h.load[member]++
}

func (h *homes) forget(key uint64) {
	if e := h.byKey[key]; e != nil {
		h.load[e.member]--
		delete(h.byKey, key)
	}
}
