package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/solver"
	"islands/internal/topology"
)

// poisonSlots NaN-fills every slot arena right after its bind, for the test.
func poisonSlots(t *testing.T) {
	t.Helper()
	prev := slotHook
	slotHook = func(a *grid.Arena) { a.Fill(math.NaN()) }
	t.Cleanup(func() { slotHook = prev })
}

// withMemory makes admission price resident jobs against limit bytes.
func withMemory(t *testing.T, limit int64) {
	t.Helper()
	prev := memory
	memory = func() int64 { return limit }
	t.Cleanup(func() { memory = prev })
}

// lentFactory builds the engines a server's default factory builds for
// resident specs: no scratch of their own.
func lentFactory(ns NormSpec) (Engine, error) { return newSolverEngine(ns, 1, true) }

// solverGrid is g, or the nearest k extent the solver's component packing
// accepts.
func solverGrid(t *testing.T, name string, g grid.Size) grid.Size {
	t.Helper()
	entry, err := solver.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	for nk := 1; nk <= 16 && entry.CheckDomain != nil && entry.CheckDomain(g) != nil; nk++ {
		g.NK = nk
	}
	return g
}

// referenceChecksums runs the catalog entry's sequential reference on its
// standard problem and summarizes the feedback field as an engine does.
func referenceChecksums(t *testing.T, ns NormSpec) Checksums {
	t.Helper()
	entry, err := ns.SolverEntry()
	if err != nil {
		t.Fatal(err)
	}
	st, err := entry.NewState(ns.Domain)
	if err != nil {
		t.Fatal(err)
	}
	entry.SetProblem(st)
	if err := entry.Reference(st, ns.Steps, ns.Boundary, ns.SolverOptions()); err != nil {
		t.Fatal(err)
	}
	sm := grid.NewSummary()
	sm.Add(st.Output().Data)
	return Checksums{Sum: sm.Sum(), Min: sm.Min, Max: sm.Max}
}

// fieldsOf counts the fields a resident engine of ns holds.
func fieldsOf(ns NormSpec) (exec.FieldCount, error) {
	_, kp, err := ns.program()
	if err != nil {
		return exec.FieldCount{}, err
	}
	return ns.engineFields(&kp.Program)
}

// TestSlotArenasPoisonedAtEveryBind: a 2-slot server whose slot arenas are
// NaN-filled at every bind serves every catalog solver on every arm and both
// boundaries, on odd grids, bit-identical to the solver's sequential
// reference. The second round hits the cache, so every engine runs again on
// an arena another class used last: no stage may read a scratch cell its
// step did not write.
func TestSlotArenasPoisonedAtEveryBind(t *testing.T) {
	withHost(t, topology.Host{Nodes: 1, CPUs: 4})
	poisonSlots(t)
	type class struct {
		spec Spec
		want Checksums
	}
	var classes []class
	arms := []Spec{{Strategy: "original"}, {Strategy: "3+1d"}, {Strategy: "islands"}, {Strategy: "islands", CoreIslands: true}}
	for _, name := range solver.Names() {
		g := solverGrid(t, name, grid.Sz(13, 11, 5))
		for _, bc := range []string{"clamp", "periodic"} {
			for _, arm := range arms {
				arm.Solver, arm.Grid, arm.Steps, arm.Boundary = name, fmt.Sprintf("%dx%dx%d", g.NI, g.NJ, g.NK), 3, bc
				ns, err := arm.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				classes = append(classes, class{arm, referenceChecksums(t, ns)})
			}
		}
	}
	srv := NewServer(Options{Slots: 2, MaxCached: len(classes), QueueDepth: 2 * len(classes), Logf: t.Logf})
	defer srv.Close()
	for round := 0; round < 2; round++ {
		jobs := make([]*Job, len(classes))
		for i, c := range classes {
			j, err := srv.Submit(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			<-j.Done()
			c, st := classes[i], srv.Status(j)
			name := fmt.Sprintf("round %d %s %s %s/%s core=%v", round, c.spec.Solver, c.spec.Grid, c.spec.Boundary, c.spec.Strategy, c.spec.CoreIslands)
			if st.Result == nil {
				t.Fatalf("%s: %s %s", name, st.State, st.Error)
			}
			got := st.Result.Checksums
			for _, p := range [][2]float64{{got.Sum, c.want.Sum}, {got.Min, c.want.Min}, {got.Max, c.want.Max}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Errorf("%s: checksums %+v, the sequential reference %+v", name, got, c.want)
					break
				}
			}
			if round == 1 && !st.Result.CacheHit {
				t.Errorf("%s: second round missed the cache", name)
			}
		}
	}
}

// heapBytes is the live heap after a full collection.
func heapBytes() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runLease runs one job of ns on a leased engine.
func runLease(t *testing.T, l *Lease, steps int) {
	t.Helper()
	eng := l.Engine()
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	eng.Checksums()
}

// TestIdleEngineHoldsOnlyItsState measures what a released pooled mpdata
// engine keeps on the heap, in fields of its 64x32x8 domain: its state
// (5 step inputs, the output stage, one private feedback buffer per island)
// and its first fill, but no stage scratch — that stays in the slot arena,
// which the pool reports apart. An engine that owns its scratch holds 23
// fields on original and 42 on islands.
func TestIdleEngineHoldsOnlyItsState(t *testing.T) {
	withHost(t, topology.Host{Nodes: 1, CPUs: 2})
	for _, c := range []struct {
		strategy string
		max      float64
	}{{"original", 8}, {"islands", 11}} {
		ns, err := Spec{Grid: "64x32x8", Steps: 5, Strategy: c.strategy, Processors: 2}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		field := float64(ns.Domain.Cells() * grid.CellBytes)
		p := NewPool(1, 8, lentFactory)
		before := heapBytes()
		l, err := p.Acquire(context.Background(), ns)
		if err != nil {
			t.Fatal(err)
		}
		runLease(t, l, ns.Steps)
		l.Release(true)
		st := p.Stats()
		held := float64(heapBytes()-before-st.SlotScratchBytes) / field
		fc, err := fieldsOf(ns)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: idle engine holds %.1f fields, slot arena %.1f, pool reports %.1f cached", c.strategy, held,
			float64(st.SlotScratchBytes)/field, float64(st.CacheBytes)/field)
		if held > c.max {
			t.Errorf("%s: a released engine holds %.1f fields, want at most %v", c.strategy, held, c.max)
		}
		if want := int64(fc.Scratch) * int64(ns.Domain.Cells()) * grid.CellBytes; st.SlotScratchBytes != want {
			t.Errorf("%s: slot arena holds %d bytes, want the engine's scratch, %d", c.strategy, st.SlotScratchBytes, want)
		}
		if want := int64(fc.State+1) * int64(ns.Domain.Cells()) * grid.CellBytes; st.CacheBytes != want {
			t.Errorf("%s: pool reports %d cached bytes, want state and first fill, %d", c.strategy, st.CacheBytes, want)
		}
		p.Close()
	}
}

// TestSlotArenaShrinksWhenItsBigEngineLeaves: a big job grows the slot's
// arena to its scratch; once its engine is evicted, the arena is freed
// rather than kept at more than arenaSlack times what the cache needs, and
// the next engine grows it back to its own need only.
func TestSlotArenaShrinksWhenItsBigEngineLeaves(t *testing.T) {
	withHost(t, topology.Host{Nodes: 1, CPUs: 2})
	p := NewPool(1, 1, lentFactory)
	defer p.Close()
	need := func(ns NormSpec) int64 {
		fc, err := fieldsOf(ns)
		if err != nil {
			t.Fatal(err)
		}
		return int64(fc.Scratch) * int64(ns.Domain.Cells()) * grid.CellBytes
	}
	big, err := Spec{Grid: "96x32x16", Steps: 2, Strategy: "islands"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	small, err := Spec{Grid: "16x8x4", Steps: 2, Strategy: "original"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ns NormSpec) PoolStats {
		l, err := p.Acquire(context.Background(), ns)
		if err != nil {
			t.Fatal(err)
		}
		runLease(t, l, ns.Steps)
		l.Release(true)
		return p.Stats()
	}
	if st := run(big); st.SlotScratchBytes != need(big) {
		t.Fatalf("after the big job the arena holds %d bytes, want %d", st.SlotScratchBytes, need(big))
	}
	// The small engine's release evicts the big one (one cached engine).
	if st := run(small); st.Evictions != 1 || st.SlotScratchBytes > arenaSlack*need(small) {
		t.Fatalf("after evicting the big engine: %d evictions, arena %d bytes, want at most %d", st.Evictions, st.SlotScratchBytes, arenaSlack*need(small))
	}
	if st := run(small); st.SlotScratchBytes != need(small) {
		t.Fatalf("the small engine's arena holds %d bytes, want %d", st.SlotScratchBytes, need(small))
	}
}

// slotFake is an engine with a real engine's scratch need that binds and
// unbinds like one, without compiling anything.
type slotFake struct {
	fakeEngine
	cells int
	bound bool
}

func (e *slotFake) bindScratch(a *grid.Arena) {
	f := grid.NewUnboundField("scratch", grid.Sz(e.cells, 1, 1))
	a.Bind([]*grid.Field{f})
	e.bound = len(f.Data) == e.cells
}

func (e *slotFake) idleBytes() int64  { return 1 }
func (e *slotFake) scratchCells() int { return e.cells }
func (e *slotFake) unbindScratch()    { e.bound = false }

// TestServeMixReallocatesNoArena replays the serve-mix class mix — sixteen
// Zipf-drawn classes into two slots caching eight engines, on a 2-CPU host —
// with engines carrying the scratch needs real ones count. No free arena ever
// exceeds arenaSlack times the largest need among the engines cached or
// leased, and after a warm-up an arena is allocated again only when that bound
// freed it: when every class with a large need (the island arms) has left the
// cache at once, which a few runs of 3500 jobs do once. Seeds 1-10 read 0-8
// allocations; a policy that reallocated on class switches would read hundreds.
func TestServeMixReallocatesNoArena(t *testing.T) {
	withHost(t, topology.Host{Nodes: 1, CPUs: 2})
	var mix []NormSpec
	add := func(s Spec) {
		s.Steps, s.Processors = 5, 2
		ns, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, ns)
	}
	arms := []Spec{{Strategy: "original"}, {Strategy: "3+1d"}, {Strategy: "islands"}, {Strategy: "islands", CoreIslands: true}}
	for _, g := range []string{"48x32x8", "64x32x8"} {
		for _, a := range arms {
			a.Grid = g
			add(a)
		}
	}
	add(Spec{Grid: "96x32x8", Strategy: "islands"})
	add(Spec{Grid: "96x32x8", Strategy: "3+1d"})
	for _, sg := range [][2]string{{"heat", "64x32x8"}, {"lbm", "64x32x9"}, {"swe", "64x64x3"}, {"wave", "64x64x2"}, {"life", "64x64x1"}, {"gcr", "48x32x8"}} {
		add(Spec{Solver: sg[0], Grid: sg[1]})
	}
	needs := map[CacheKey]int{}
	for _, ns := range mix {
		fc, err := fieldsOf(ns)
		if err != nil {
			t.Fatal(err)
		}
		needs[ns.Key()] = fc.Scratch * ns.Domain.Cells()
	}
	for _, seed := range []int64{1, 2, 3} {
		p := NewPool(2, 8, func(ns NormSpec) (Engine, error) { return &slotFake{cells: needs[ns.Key()]}, nil })
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.2, 2, uint64(len(mix)-1))
		var held []*Lease
		const warm, jobs = 500, 4000
		var grown uint64
		for n := 0; n < jobs; n++ {
			if n == warm {
				p.mu.Lock()
				grown = p.arenaGrowths
				p.mu.Unlock()
			}
			if len(held) == 2 {
				held[0].Release(true)
				held = held[1:]
			}
			l, err := p.Acquire(context.Background(), mix[z.Uint64()])
			if err != nil {
				t.Fatal(err)
			}
			if f := l.Engine().(*slotFake); f.cells > 0 && !f.bound {
				t.Fatal("a leased engine's scratch does not fit its slot arena")
			}
			held = append(held, l)
			p.mu.Lock()
			most := p.largestNeedLocked()
			for _, s := range p.slots {
				if s.entry == nil && s.arena.Cells() > arenaSlack*most {
					t.Fatalf("job %d: a free slot arena of %d cells, over %d times the largest need %d", n, s.arena.Cells(), arenaSlack, most)
				}
			}
			p.mu.Unlock()
		}
		p.mu.Lock()
		grown = p.arenaGrowths - grown
		p.mu.Unlock()
		t.Logf("seed %d: %d arena allocations in %d jobs after a %d-job warm-up", seed, grown, jobs-warm, warm)
		if grown > (jobs-warm)/250 {
			t.Errorf("seed %d: %d arena allocations in %d jobs after the warm-up, want at most one per 250", seed, grown, jobs-warm)
		}
		for _, l := range held {
			l.Release(true)
		}
		p.Close()
	}
}

// TestAdmissionPricesResidentBytes: a resident spec whose engine would not fit
// the machine's memory is refused with 413 before anything is allocated, and
// the answer points at the streamed job class. With the memory read from the
// machine, the largest grid the cell bound admits is such a spec.
func TestAdmissionPricesResidentBytes(t *testing.T) {
	// The server's and the HTTP client's own buffers move the heap by about
	// a MiB between two reads; a quarter of the smallest refused field is
	// far above that and far below any field a priced engine would allocate.
	const heapNoise = 8 << 20
	srv := NewServer(Options{Slots: 1, Logf: t.Logf})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	submit := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if limit := memory(); limit > 0 {
		before := heapBytes()
		code, body := submit(`{"grid":"2048x1024x1024","steps":1,"strategy":"islands"}`)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, `\"streamed\": true`) {
			t.Fatalf("a 2^31-cell islands spec against %d bytes: %d %s, want 413 naming the streamed class", limit, code, body)
		}
		if grew := heapBytes() - before; grew > heapNoise {
			t.Fatalf("the refused spec grew the heap by %d bytes", grew)
		}
	}

	withMemory(t, 64<<20)
	if code, body := submit(`{"grid":"32x16x8","steps":1}`); code != http.StatusAccepted {
		t.Fatalf("a small spec under 64 MiB: %d %s", code, body)
	}
	// 2^22 cells: one field is 32 MiB, the islands engine 14 fields and more.
	before := heapBytes()
	code, body := submit(`{"grid":"256x256x64","steps":1,"strategy":"islands"}`)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, "over this machine's 67108864") {
		t.Fatalf("a 32 MiB-per-field spec under 64 MiB: %d %s, want 413", code, body)
	}
	if grew := heapBytes() - before; grew > heapNoise {
		t.Fatalf("the refused spec grew the heap by %d bytes", grew)
	}
	// A streamed job prices its own footprint under its budget instead.
	if _, err := (Spec{Grid: "256x256x64", Steps: 1, Streamed: true}).Normalize(); err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().Submitted.Load() != 1 {
		t.Fatalf("%d jobs admitted, want only the small one", srv.Metrics().Submitted.Load())
	}
}
