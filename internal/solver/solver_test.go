package solver

import (
	"math/rand"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestCatalogShape pins the catalog surface: the incumbents and the new
// workloads are registered, lookup is case/space-insensitive with "" mapping
// to the default, and unknown names fail with the catalog listed.
func TestCatalogShape(t *testing.T) {
	names := Names()
	if len(names) < 5 {
		t.Fatalf("catalog has %d entries, want >= 5: %v", len(names), names)
	}
	if names[0] != DefaultName {
		t.Fatalf("Names()[0] = %q, want the default %q first", names[0], DefaultName)
	}
	for _, want := range []string{"mpdata", "heat", "gcr", "lbm", "swe", "wave", "life"} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("Lookup(%q): %v", want, err)
		}
	}
	for _, alias := range []string{"", "  MPDATA  ", "Heat"} {
		if _, err := Lookup(alias); err != nil {
			t.Errorf("Lookup(%q): %v", alias, err)
		}
	}
	if _, err := Lookup("no-such-solver"); err == nil {
		t.Error("Lookup of an unknown solver succeeded")
	}
	// Streaming eligibility: the plane-seeded entries and only them.
	for _, tc := range []struct {
		name string
		want bool
	}{{"mpdata", true}, {"heat", true}, {"gcr", false}, {"lbm", false}, {"swe", false}, {"wave", false}, {"life", false}} {
		e, err := Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Streamable() != tc.want {
			t.Errorf("%s.Streamable() = %v, want %v", tc.name, e.Streamable(), tc.want)
		}
	}
}

// testDomain picks a deterministic pseudo-random shape the entry accepts:
// free i/j extents, and the k extent the entry's packing constraint allows
// (probing upward from the random candidate).
func testDomain(t *testing.T, e *Entry, rng *rand.Rand) grid.Size {
	t.Helper()
	ni := 18 + rng.Intn(16)
	nj := 12 + rng.Intn(12)
	nk := 3 + rng.Intn(6)
	for probe := 0; probe < 16; probe++ {
		d := grid.Sz(ni, nj, (nk+probe-3)%16+1)
		if e.CheckDomain == nil {
			return grid.Sz(ni, nj, nk)
		}
		if err := e.CheckDomain(d); err == nil {
			return d
		}
	}
	t.Fatalf("%s: no k extent in 1..16 passes CheckDomain", e.Name)
	return grid.Size{}
}

// TestCrossSolverBitIdentity is the catalog's property test: every entry,
// under pseudo-random shapes, both boundary conditions, all four strategies
// and temporal blocking k in {1,2,4} (steps/k Runs of one k-step block
// each), must be bit-identical to its sequential reference. Infeasible k
// falls back loudly inside the executor (the schedule stats carry the reason)
// but identity must hold regardless.
func TestCrossSolverBitIdentity(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	type strat struct {
		name string
		cfg  func() exec.Config
	}
	strategies := []strat{
		{"original", func() exec.Config { return exec.Config{Machine: m2, Strategy: exec.Original} }},
		{"3+1d", func() exec.Config { return exec.Config{Machine: m2, Strategy: exec.Plus31D, BlockI: 7} }},
		{"islands", func() exec.Config { return exec.Config{Machine: m2, Strategy: exec.IslandsOfCores, BlockI: 7} }},
		{"islands+core", func() exec.Config {
			return exec.Config{Machine: m2, Strategy: exec.IslandsOfCores, BlockI: 7, CoreIslands: true}
		}},
	}
	const steps = 4
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
			shapes := 2
			if testing.Short() {
				shapes = 1
			}
			for s := 0; s < shapes; s++ {
				domain := testDomain(t, e, rng)
				for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
					bcName := map[stencil.Boundary]string{stencil.Clamp: "clamp", stencil.Periodic: "periodic"}[bc]
					// The oracle: the entry's independent sequential
					// reference advanced from the standard problem.
					ref, err := e.NewProblemState(domain)
					if err != nil {
						t.Fatal(err)
					}
					if err := e.Reference(ref, steps, bc, Options{}); err != nil {
						t.Fatal(err)
					}
					want := ref.Output()
					for _, st := range strategies {
						for _, k := range []int{1, 2, 4} {
							cfg := st.cfg()
							if k > 1 && cfg.Strategy != exec.IslandsOfCores {
								continue // executor rejects ksteps elsewhere
							}
							cfg.Boundary = bc
							cfg.Steps = k
							cfg.KSteps = k
							got := runCompiled(t, e, cfg, domain, steps/k)
							if d := grid.MaxAbsDiff(want, got); d != 0 {
								t.Errorf("%v %s %s k=%d: max diff vs reference %g, want exact",
									domain, bcName, st.name, k, d)
							}
						}
					}
				}
			}
		})
	}
}

// runCompiled advances one entry through the compiled executor from the
// standard problem, runs Runs of cfg.Steps each, and returns the synced
// feedback field.
func runCompiled(t *testing.T, e *Entry, cfg exec.Config, domain grid.Size, runs int) *grid.Field {
	t.Helper()
	st, err := e.NewProblemState(domain)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := e.NewProgram(Options{})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := exec.NewRunner(cfg, prog, st.Inputs, st.Feedback)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	for i := 0; i < runs; i++ {
		if err := runner.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runner.SyncFeedback()
	return st.Output()
}

// TestHaloMatchesLongestPath pins each program's analyzed feedback halo to
// an independent longest-path walk of its stage DAG: per face, the analyzed
// width must equal the maximum over all output-to-input paths of the summed
// per-edge offsets.
func TestHaloMatchesLongestPath(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			prog, err := e.NewProgram(Options{})
			if err != nil {
				t.Fatal(err)
			}
			analysis, err := stencil.Analyze(&prog.Program)
			if err != nil {
				t.Fatal(err)
			}
			for _, input := range prog.StepInputs {
				want := longestPathExtent(&prog.Program, input)
				got, ok := analysis.InputExtents[input]
				if !ok {
					t.Fatalf("no analyzed extent for input %q", input)
				}
				if got != want {
					t.Errorf("input %q: analyzed extent %+v, longest-path extent %+v", input, got, want)
				}
			}
		})
	}
}

// longestPathExtent computes a step input's halo extent by exhaustive
// backward path enumeration from the output stage — deliberately naive and
// independent of stencil.Analyze's needed-stage propagation.
func longestPathExtent(p *stencil.Program, input string) stencil.Extent {
	var walk func(stage string) (stencil.Extent, bool)
	walk = func(stage string) (stencil.Extent, bool) {
		if stage == input {
			return stencil.Extent{}, true
		}
		idx := p.StageIndex(stage)
		if idx < 0 {
			return stencil.Extent{}, false // another step input
		}
		var best stencil.Extent
		found := false
		for _, in := range p.Stages[idx].Inputs {
			sub, ok := walk(in.From)
			if !ok {
				continue
			}
			edge := stencil.OffsetsExtent(in.Offsets)
			cand := stencil.Extent{
				ILo: sub.ILo + edge.ILo, IHi: sub.IHi + edge.IHi,
				JLo: sub.JLo + edge.JLo, JHi: sub.JHi + edge.JHi,
				KLo: sub.KLo + edge.KLo, KHi: sub.KHi + edge.KHi,
			}
			if !found {
				best, found = cand, true
				continue
			}
			best = stencil.Extent{
				ILo: max(best.ILo, cand.ILo), IHi: max(best.IHi, cand.IHi),
				JLo: max(best.JLo, cand.JLo), JHi: max(best.JHi, cand.JHi),
				KLo: max(best.KLo, cand.KLo), KHi: max(best.KHi, cand.KHi),
			}
		}
		return best, found
	}
	ext, _ := walk(p.Output)
	return ext
}
