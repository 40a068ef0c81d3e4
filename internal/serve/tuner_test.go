package serve

import (
	"sync/atomic"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/tune"
)

// tunerSpec is the standard tuner-test job: small islands problem, 4 steps
// so k in {1,2,4} stays feasible.
func tunerSpec() Spec {
	return Spec{Grid: "48x24x8", Steps: 4, Processors: 2, Strategy: "islands"}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
}

// TestTunedKeyCanonicalization is the alias-path unit test: a spec with the
// automatic BlockI and one spelling the same resolved width explicitly must
// map to one canonical cache key after tuning normalization — the same
// physical engine is never cached twice under requested and tuned keys.
func TestTunedKeyCanonicalization(t *testing.T) {
	auto, err := tunerSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	kn, ok := requestedKnobs(auto)
	if !ok {
		t.Fatal("requestedKnobs failed for a valid spec")
	}
	if kn.BlockI <= 0 {
		t.Fatalf("canonical knobs kept automatic BlockI: %+v", kn)
	}

	explicitSpec := tunerSpec()
	explicitSpec.BlockI = kn.BlockI
	explicit, err := explicitSpec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if auto.Key() == explicit.Key() {
		t.Fatal("raw keys should differ (BlockI 0 vs explicit) for this test to mean anything")
	}
	ka := applyKnobs(auto, kn)
	kne, ok := requestedKnobs(explicit)
	if !ok {
		t.Fatal("requestedKnobs failed for the explicit spec")
	}
	ke := applyKnobs(explicit, kne)
	if ka.Key() != ke.Key() {
		t.Fatalf("canonicalized keys alias:\n auto     %+v\n explicit %+v", ka.Key(), ke.Key())
	}
}

// TestServerTunerSharesEngineAcrossAliases runs the alias path end to end:
// with a tuner, an auto-BlockI request and an explicit-BlockI request in the
// same problem class lease the same cached engine (one compile, then a hit),
// and results carry the requested-vs-tuned labels.
func TestServerTunerSharesEngineAcrossAliases(t *testing.T) {
	tn, err := NewTuner(TunerOptions{Seed: 1, Epsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	srv := NewServer(Options{Slots: 1, EngineFactory: fakeFactory(&builds), Tuner: tn})
	defer srv.Close()

	auto, err := tunerSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	kn, ok := requestedKnobs(auto)
	if !ok {
		t.Fatal("requestedKnobs failed")
	}
	explicitSpec := tunerSpec()
	explicitSpec.BlockI = kn.BlockI

	j1, err := srv.Submit(tunerSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	j2, err := srv.Submit(explicitSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)

	for _, j := range []*Job{j1, j2} {
		st := j.status()
		if st.State != StateSucceeded {
			t.Fatalf("job %s: %s (%s)", j.ID, st.State, st.Error)
		}
		r := st.Result
		if r.RequestedConfig == "" || r.TunedConfig == "" || r.TuneReason == "" {
			t.Fatalf("job %s result missing tuning fields: %+v", j.ID, r)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("factory ran %d times, want 1 (aliased specs must share one engine)", n)
	}
	if r := j2.status().Result; !r.CacheHit {
		t.Fatal("second aliased job missed the engine cache")
	}
	if c := tn.Counters(); c.Decisions != 2 || c.Classes != 1 {
		t.Fatalf("tuner counters %+v, want 2 decisions in 1 class", c)
	}
}

// TestServerTunerPinPassthrough: a pinned job runs exactly as requested —
// no tuning decision, no tuned labels, and the pinned counter moves.
func TestServerTunerPinPassthrough(t *testing.T) {
	tn, err := NewTuner(TunerOptions{Seed: 1, Epsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	srv := NewServer(Options{Slots: 1, EngineFactory: fakeFactory(&builds), Tuner: tn})
	defer srv.Close()

	spec := tunerSpec()
	spec.Pin = true
	spec.Strategy = "original"
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	st := j.status()
	if st.State != StateSucceeded {
		t.Fatalf("pinned job: %s (%s)", st.State, st.Error)
	}
	r := st.Result
	if r.TunedConfig != "" || r.Tuned || r.TuneReason != "" {
		t.Fatalf("pinned job was tuned: %+v", r)
	}
	if r.Strategy != "original" {
		t.Fatalf("pinned job ran %q, want the requested original strategy", r.Strategy)
	}
	if n := srv.Metrics().TunerPinned.Load(); n != 1 {
		t.Fatalf("pinned counter %d, want 1", n)
	}
	if c := tn.Counters(); c.Decisions != 0 {
		t.Fatalf("pinned job consumed a tuning decision: %+v", c)
	}
}

// TestServerTunerNeverWorseThanRequested feeds the tuner measurements that
// make the requested configuration the fastest known and checks the next
// decision serves it unchanged (greedy mode).
func TestServerTunerNeverWorseThanRequested(t *testing.T) {
	tn, err := NewTuner(TunerOptions{Seed: 1, Epsilon: -1})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := tunerSpec().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	req, ok := requestedKnobs(ns)
	if !ok {
		t.Fatal("requestedKnobs failed")
	}
	class := ClassOf(ns)
	// First decision may substitute the model's favorite; report the
	// requested knobs as dramatically faster than anything modeled.
	d := tn.Decide(class, req, ns.Steps)
	tn.Observe(class, tune.Observation{Knobs: d.Knobs, StepSeconds: 1.0, Steps: ns.Steps})
	tn.Observe(class, tune.Observation{Knobs: req, StepSeconds: 1e-6, Steps: ns.Steps})
	d = tn.Decide(class, req, ns.Steps)
	if d.Knobs != req || d.Tuned {
		t.Fatalf("measured-fastest requested config was displaced: %+v", d)
	}
	// Strategy preserved end to end through spec re-pointing.
	if got := applyKnobs(ns, d.Knobs).Strategy; got != exec.IslandsOfCores {
		t.Fatalf("applyKnobs changed strategy to %v", got)
	}
}
