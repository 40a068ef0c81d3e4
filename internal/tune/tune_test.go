package tune

import (
	"math/rand"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
)

// fixedSeeder returns a deterministic 4-candidate set: modeled order c0 <
// c1 < c2 < c3.
func fixedSeeder(t *testing.T) (Seeder, []Knobs) {
	t.Helper()
	knobs := []Knobs{
		{Strategy: exec.IslandsOfCores, BlockI: 16, Placement: grid.FirstTouchParallel},
		{Strategy: exec.IslandsOfCores, BlockI: 32, Placement: grid.FirstTouchParallel},
		{Strategy: exec.IslandsOfCores, BlockI: 8, Placement: grid.Interleaved},
		{Strategy: exec.Plus31D, BlockI: 16, Placement: grid.FirstTouchParallel},
	}
	seeder := func(Class) ([]Candidate, error) {
		return []Candidate{
			{Knobs: knobs[0], Label: "c0", ModeledStep: 0.010},
			{Knobs: knobs[1], Label: "c1", ModeledStep: 0.011},
			{Knobs: knobs[2], Label: "c2", ModeledStep: 0.012},
			{Knobs: knobs[3], Label: "c3", ModeledStep: 0.013},
		}, nil
	}
	return seeder, knobs
}

func testClass() Class {
	return Class{Domain: grid.Sz(64, 32, 8), Processors: 2, Boundary: stencil.Clamp, IORD: 2}
}

// TestSeededCandidatesAlwaysFeasible is the property test of the satellite
// contract: the tuner never emits a candidate the executor would reject —
// every seeded candidate's config passes Config.Validate and the plan builds
// (CheckConfig), across random machines and domains.
func TestSeededCandidatesAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := &mpdata.NewProgram().Program
	for trial := 0; trial < 12; trial++ {
		p := 1 + rng.Intn(4)
		domain := grid.Sz(4+rng.Intn(93), 4+rng.Intn(61), 2+rng.Intn(15))
		boundary := stencil.Clamp
		if rng.Intn(2) == 0 {
			boundary = stencil.Periodic
		}
		class := Class{Domain: domain, Processors: p, Boundary: boundary, IORD: 2}
		m, err := class.Machine()
		if err != nil {
			t.Fatal(err)
		}
		cands, err := SeedCandidates(m, prog, class)
		if err != nil {
			t.Fatalf("p=%d domain=%v: %v", p, domain, err)
		}
		if len(cands) == 0 {
			t.Fatalf("p=%d domain=%v: empty candidate set", p, domain)
		}
		for _, c := range cands {
			cfg := ApplyKnobs(class.BaseConfig(m), c.Knobs)
			cfg.Steps = 1
			if err := cfg.Validate(); err != nil {
				t.Errorf("p=%d domain=%v %s: Validate: %v", p, domain, c.Label, err)
			}
			if err := exec.CheckConfig(cfg, prog, domain); err != nil {
				t.Errorf("p=%d domain=%v %s: CheckConfig: %v", p, domain, c.Label, err)
			}
			if c.Knobs.BlockI <= 0 && c.Knobs.Strategy != exec.Original {
				t.Errorf("p=%d domain=%v %s: non-canonical BlockI %d", p, domain, c.Label, c.Knobs.BlockI)
			}
		}
	}
}

// TestDeterminism: same seed + same measurement sequence => the same
// decision sequence and the same final winner.
func TestDeterminism(t *testing.T) {
	seeder, knobs := fixedSeeder(t)
	run := func() ([]Decision, Decision) {
		tn, err := New(Options{Seed: 42, Seeder: seeder, Epsilon: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		class := testClass()
		req := knobs[0]
		var ds []Decision
		// Deterministic synthetic measurements: c2 is actually fastest,
		// inverting the modeled order.
		cost := map[Knobs]float64{
			knobs[0]: 0.012, knobs[1]: 0.013, knobs[2]: 0.008, knobs[3]: 0.014,
		}
		for i := 0; i < 100; i++ {
			d := tn.Decide(class, req, 4)
			ds = append(ds, d)
			tn.Observe(class, Observation{
				Knobs: d.Knobs, StepSeconds: cost[d.Knobs], ImbalancePct: 1, Steps: 4, Explored: d.Explore,
			})
		}
		final := tn.Best(class, req)
		return ds, final
	}
	ds1, f1 := run()
	ds2, f2 := run()
	if len(ds1) != len(ds2) {
		t.Fatalf("decision counts differ: %d vs %d", len(ds1), len(ds2))
	}
	for i := range ds1 {
		if ds1[i] != ds2[i] {
			t.Fatalf("decision %d differs: %+v vs %+v", i, ds1[i], ds2[i])
		}
	}
	if f1 != f2 {
		t.Fatalf("winners differ: %+v vs %+v", f1, f2)
	}
	// The measurements made c2 the winner despite its modeled rank.
	if f1.Explore {
		t.Fatalf("final decision unexpectedly explored: %+v", f1)
	}
	if f1.Label != "c2" {
		t.Fatalf("measured winner not chosen: %+v", f1)
	}
}

// TestExplorationBudget: with epsilon forced to 1 the explored step share
// still stays within ExploreFrac.
func TestExplorationBudget(t *testing.T) {
	seeder, knobs := fixedSeeder(t)
	tn, err := New(Options{Seed: 3, Seeder: seeder, Epsilon: 1, ExploreFrac: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	class := testClass()
	const n, stepsPer = 300, 10
	explored := 0
	for i := 0; i < n; i++ {
		if d := tn.Decide(class, knobs[0], stepsPer); d.Explore {
			explored++
		}
	}
	frac := float64(explored) / float64(n)
	if frac > 0.2+1e-9 {
		t.Fatalf("explored %.2f of decisions, budget 0.20", frac)
	}
	if explored == 0 {
		t.Fatal("epsilon=1 never explored")
	}
	c := tn.Counters()
	if c.Decisions != n+0 || c.Explored != uint64(explored) {
		t.Fatalf("counters %+v, want decisions=%d explored=%d", c, n, explored)
	}
}

// TestNeverWorseThanRequested: a requested configuration that measurements
// show to be the fastest is returned unchanged, even when the model ranked
// another candidate first; an unknown requested config is only displaced by
// candidates with a real score.
func TestNeverWorseThanRequested(t *testing.T) {
	seeder, knobs := fixedSeeder(t)
	tn, err := New(Options{Seed: 5, Seeder: seeder})
	if err != nil {
		t.Fatal(err)
	}
	class := testClass()
	req := knobs[3] // modeled worst
	// Measurements: requested is actually fastest, modeled-best is slow.
	tn.Observe(class, Observation{Knobs: req, StepSeconds: 0.005, Steps: 4})
	tn.Observe(class, Observation{Knobs: knobs[0], StepSeconds: 0.020, Steps: 4})
	d := tn.Decide(class, req, 4)
	if d.Tuned || d.Knobs != req {
		t.Fatalf("requested config should win on measurements: %+v", d)
	}

	// A request outside the enumeration passes through only until a
	// measured candidate beats... it has no score, so the best-known
	// candidate is substituted (reason "model" or "measured").
	exotic := Knobs{Strategy: exec.IslandsOfCores, BlockI: 7, Placement: grid.FirstTouchParallel}
	d = tn.Decide(class, exotic, 4)
	if d.Knobs == exotic {
		t.Fatalf("exotic request should map to a known candidate, got %+v", d)
	}
}

// TestSeedErrorPassthrough: a class whose seeding fails serves requests
// unchanged and counts the seed error once.
func TestSeedErrorPassthrough(t *testing.T) {
	calls := 0
	seeder := func(Class) ([]Candidate, error) {
		calls++
		return nil, errTest
	}
	tn, err := New(Options{Seed: 1, Seeder: seeder})
	if err != nil {
		t.Fatal(err)
	}
	class := testClass()
	req := Knobs{Strategy: exec.IslandsOfCores, BlockI: 24, Placement: grid.FirstTouchParallel}
	for i := 0; i < 3; i++ {
		d := tn.Decide(class, req, 4)
		if d.Tuned || d.Knobs != req {
			t.Fatalf("seed-error class must pass through: %+v", d)
		}
	}
	if calls != 1 {
		t.Fatalf("seeder called %d times, want 1 (cached failure)", calls)
	}
	if c := tn.Counters(); c.SeedErrors != 1 {
		t.Fatalf("seed errors %d, want 1", c.SeedErrors)
	}
}

// TestCalibrate measures every TopM candidate once and returns the
// measured winner.
func TestCalibrate(t *testing.T) {
	seeder, knobs := fixedSeeder(t)
	tn, err := New(Options{Seed: 9, Seeder: seeder})
	if err != nil {
		t.Fatal(err)
	}
	class := testClass()
	cost := map[Knobs]float64{
		knobs[0]: 0.012, knobs[1]: 0.007, knobs[2]: 0.009, knobs[3]: 0.014,
	}
	measured := 0
	d, err := tn.Calibrate(class, knobs[0], func(k Knobs) (Observation, error) {
		measured++
		return Observation{StepSeconds: cost[k], ImbalancePct: 2, Steps: 4}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if measured != 4 {
		t.Fatalf("measured %d candidates, want 4", measured)
	}
	if d.Label != "c1" || !d.Tuned || d.Reason != "measured" {
		t.Fatalf("calibrated winner %+v, want c1", d)
	}
}

var errTest = errFixed("seed failed")

type errFixed string

func (e errFixed) Error() string { return string(e) }
