package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"
	"time"

	"islands/internal/serve"
)

// stubEngine is an engine nothing is asked of but to be closed.
type stubEngine struct{ serve.Engine }

func (stubEngine) Close() {}

// TestAffinityKeyIsTheEngineIdentity: what does not shape an engine (steps,
// pin, profile, timeout_ms) moves neither the ring point nor the pool key, so
// such jobs share a home replica and its cached engine; every field of
// serve.CacheKey moves both, so a field added to the identity cannot be left
// out of the hash.
func TestAffinityKeyIsTheEngineIdentity(t *testing.T) {
	base, err := serve.Spec{Grid: "32x16x8", Steps: 2, Processors: 2}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	other, err := serve.Spec{Grid: "32x16x8", Steps: 7, Processors: 2, Pin: true, Profile: true, TimeoutMs: 9000}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if affinityKey(base) != affinityKey(other) {
		t.Error("steps, pin, profile or timeout_ms moved the ring point")
	}
	builds := 0
	pool := serve.NewPool(1, 2, func(serve.NormSpec) (serve.Engine, error) {
		builds++
		return stubEngine{}, nil
	})
	defer pool.Close()
	for _, ns := range []serve.NormSpec{base, other} {
		l, err := pool.Acquire(context.Background(), ns)
		if err != nil {
			t.Fatal(err)
		}
		l.Release(true)
	}
	if builds != 1 {
		t.Errorf("the two jobs compiled %d engines, want one shared", builds)
	}

	fields := reflect.TypeOf(serve.CacheKey{})
	for i := 0; i < fields.NumField(); i++ {
		changed := base
		v := reflect.ValueOf(&changed.CacheKey).Elem().Field(i)
		if v.Kind() == reflect.Struct { // Domain
			v = v.Field(0)
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default: // the int-kinded fields and enums
			v.SetInt(v.Int() + 1)
		}
		if changed.Key() == base.Key() || affinityKey(changed) == affinityKey(base) {
			t.Errorf("changing CacheKey.%s leaves the pool key or the ring point where it was", fields.Field(i).Name)
		}
	}
}

// TestHomesFillToCapacity: whatever order the ring prefers the members in,
// 2k distinct keys over two members of capacity k land k/k, every key keeps
// its home afterwards, and the table never outgrows the summed capacities.
func TestHomesFillToCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	members := []string{"a", "b"}
	for trial := 0; trial < 200; trial++ {
		const k = 8
		h := newHomes()
		orders := map[uint64][]string{}
		first := map[uint64]string{}
		for key := uint64(1); key <= 2*k; key++ {
			order := slices.Clone(members)
			if rng.Intn(4) > 0 { // skewed on purpose: "a" owns most keys
				slices.Reverse(order)
			}
			orders[key] = order
			first[key] = h.resolve(key, order, func(string) int { return k })
		}
		if h.load["a"] != k || h.load["b"] != k {
			t.Fatalf("trial %d: %d keys over 2x%d homed %v, want %d/%d", trial, 2*k, k, h.load, k, k)
		}
		for key, want := range first {
			if got := h.resolve(key, orders[key], func(string) int { return k }); got != want {
				t.Fatalf("trial %d: key %d moved from %s to %s on a repeat", trial, key, want, got)
			}
		}
		if len(h.byKey) != 2*k {
			t.Fatalf("trial %d: table holds %d keys, want %d", trial, len(h.byKey), 2*k)
		}
	}
}

// TestHomesReplaceLRUOnOwner: with every cache spoken for, a new key goes to
// its ring owner and takes the place of the key that owner placed least
// recently; the displaced key is new again when it returns.
func TestHomesReplaceLRUOnOwner(t *testing.T) {
	h := newHomes()
	two := func(string) int { return 2 }
	ab, ba := []string{"a", "b"}, []string{"b", "a"}
	for key := uint64(1); key <= 4; key++ {
		h.resolve(key, ab, two) // 1,2 -> a; 3,4 -> b
	}
	h.resolve(1, ab, two) // touch 1: key 2 is now a's least recent
	if got := h.resolve(5, ab, two); got != "a" {
		t.Fatalf("5th key homed on %s, want its ring owner a", got)
	}
	if _, kept := h.byKey[2]; kept || h.byKey[1] == nil || h.load["a"] != 2 || h.load["b"] != 2 {
		t.Fatalf("after the replacement: keys %v, load %v — want key 2 displaced, key 1 kept, 2/2", h.byKey, h.load)
	}
	// Key 2 comes back owned by b: b is full too, so it replaces b's LRU (3).
	if got := h.resolve(2, ba, two); got != "b" {
		t.Fatalf("displaced key re-homed on %s, want its ring owner b", got)
	}
	if _, kept := h.byKey[3]; kept || len(h.byKey) != 4 {
		t.Fatalf("table after the second replacement: %v, want key 3 displaced and 4 keys", h.byKey)
	}
}

// TestHomesRehomeWhenHomeLeaves: a key whose home is not in the ring any more
// is homed again among the members that are, and stays there when the old
// home returns.
func TestHomesRehomeWhenHomeLeaves(t *testing.T) {
	h := newHomes()
	two := func(string) int { return 2 }
	if got := h.resolve(7, []string{"a", "b"}, two); got != "a" {
		t.Fatalf("key homed on %s, want a", got)
	}
	if got := h.resolve(7, []string{"b"}, two); got != "b" {
		t.Fatalf("with a out of the ring the key homed on %s, want b", got)
	}
	if got := h.resolve(7, []string{"a", "b"}, two); got != "b" {
		t.Fatalf("after a returned the key moved to %s, want it to stay on b", got)
	}
	if h.load["a"] != 0 || h.load["b"] != 1 {
		t.Fatalf("load %v, want a:0 b:1", h.load)
	}
	if got := h.resolve(7, nil, two); got != "" {
		t.Fatalf("empty ring resolved to %q", got)
	}
}

// TestPlacementOrderIsTheRingWhenCapacityUnknown: replicas that advertise no
// cache capacity (none reachable here) are placed exactly as before — the
// order is ring.successors and nothing is remembered.
func TestPlacementOrderIsTheRingWhenCapacityUnknown(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	r, err := NewRouter(Options{Replicas: urls, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 200; i++ {
		key := hashString(fmt.Sprintf("key-%d", i))
		var got []string
		for _, m := range r.placementOrder(key) {
			got = append(got, m.name)
		}
		if want := r.ring.successors(key, len(urls)); !slices.Equal(got, want) {
			t.Fatalf("key %d: placement order %v, want the ring's %v", i, got, want)
		}
	}
	if len(r.homes.byKey) != 0 {
		t.Fatalf("homes table holds %d keys for a fleet of unknown capacity, want 0", len(r.homes.byKey))
	}
}

// TestFleetCapacityAwareHomes runs real engines behind two replicas that
// keep two engines warm each. Four job classes must settle two per replica
// wherever the ring (which depends on the replicas' random URLs) would have
// put them, repeats must stay put and hit, and no replica may evict; a fifth
// class displaces one on its ring owner; and when a replica goes down its
// classes re-home on the survivor.
func TestFleetCapacityAwareHomes(t *testing.T) {
	servers := map[string]*serve.Server{}
	fronts := map[string]*httptest.Server{}
	var urls []string
	for i := 0; i < 2; i++ {
		srv := serve.NewServer(serve.Options{Slots: 1, MaxCached: 2, Logf: t.Logf})
		hs := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			hs.Close()
			srv.Close()
		})
		servers[hs.URL], fronts[hs.URL] = srv, hs
		urls = append(urls, hs.URL)
	}
	r, err := NewRouter(Options{Replicas: urls, HealthInterval: 20 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	run := func(grid string) serve.JobStatus {
		t.Helper()
		j, err := r.Submit(context.Background(), serve.Spec{Grid: grid, Steps: 1, Processors: 2})
		if err != nil {
			t.Fatalf("submit %s: %v", grid, err)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s (%s) stuck %s", j.ID, grid, j.State())
		}
		st := r.Status(j)
		if st.State != serve.StateSucceeded {
			t.Fatalf("job %s (%s) finished %s: %s", j.ID, grid, st.State, st.Error)
		}
		return st
	}

	grids := []string{"32x16x8", "32x16x4", "16x16x8", "24x16x8"}
	home := map[string]string{}
	perReplica := map[string]int{}
	for _, g := range grids {
		home[g] = run(g).Replica
		perReplica[home[g]]++
	}
	if perReplica[urls[0]] != 2 || perReplica[urls[1]] != 2 {
		t.Fatalf("4 classes over 2 replicas of capacity 2 homed %v, want 2/2", perReplica)
	}
	for round := 0; round < 3; round++ {
		for _, g := range grids {
			st := run(g)
			if st.Replica != home[g] || !st.Result.CacheHit {
				t.Fatalf("repeat of %s ran on %s (cache hit %v), want its home %s and a hit", g, st.Replica, st.Result.CacheHit, home[g])
			}
		}
	}
	for url, srv := range servers {
		if ps := srv.PoolStats(); ps.Evictions != 0 || ps.Misses != 2 {
			t.Fatalf("replica %s: %d evictions, %d misses — want 0 and 2 (its own two classes, compiled once)", url, ps.Evictions, ps.Misses)
		}
	}
	if m := r.Metrics(); m.Steals.Load() != 0 || m.Rerouted.Load() != 0 {
		t.Fatalf("%d steals, %d reroutes in an idle healthy fleet, want 0/0", m.Steals.Load(), m.Rerouted.Load())
	}

	// A fifth class: no replica has room, so its ring owner takes it and
	// forgets the class it placed least recently.
	fifth := serve.Spec{Grid: "40x16x8", Steps: 1, Processors: 2}
	ns, err := fifth.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	owner := r.ring.owner(affinityKey(ns))
	r.mu.Unlock()
	var displaced string // the owner's class placed longest ago: first in grids order
	for _, g := range grids {
		if home[g] == owner {
			displaced = g
			break
		}
	}
	if got := run(fifth.Grid).Replica; got != owner {
		t.Fatalf("fifth class ran on %s, want its ring owner %s", got, owner)
	}
	r.mu.Lock()
	tableSize, ownerLoad := len(r.homes.byKey), r.homes.load[owner]
	dns, _ := serve.Spec{Grid: displaced, Steps: 1, Processors: 2}.Normalize()
	_, stillHomed := r.homes.byKey[affinityKey(dns)]
	r.mu.Unlock()
	if tableSize != 4 || ownerLoad != 2 || stillHomed {
		t.Fatalf("after the fifth class: table %d keys, owner load %d, displaced class %s still homed = %v — want 4, 2, false",
			tableSize, ownerLoad, displaced, stillHomed)
	}

	// Take the other replica down: its classes re-home on the owner.
	var down string
	for _, u := range urls {
		if u != owner {
			down = u
		}
	}
	fronts[down].CloseClientConnections()
	fronts[down].Close()
	deadline := time.Now().Add(10 * time.Second)
	for r.members[down].Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never left the ring", down)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, g := range grids {
		if home[g] == down {
			if got := run(g).Replica; got != owner {
				t.Fatalf("class %s of the downed replica ran on %s, want the survivor %s", g, got, owner)
			}
		}
	}
}
