package exec

import (
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/topology"
)

// rankAdvice ranks the strategy advice's candidates for a 5-step MPDATA run on
// p UV 2000 processors.
func rankAdvice(t *testing.T, p int, domain grid.Size) []*ModelResult {
	t.Helper()
	m, err := topology.UV2000(p)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := RankCandidates(m, &mpdata.NewProgram().Program, domain, Config{Steps: 5}, AdvisorSpace())
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// byLabel indexes ranked results by CandidateLabel.
func byLabel(ranked []*ModelResult) map[string]*ModelResult {
	out := make(map[string]*ModelResult, len(ranked))
	for _, r := range ranked {
		out[CandidateLabel(r.Config)] = r
	}
	return out
}

func TestRankCandidatesIslandsFirstOnMultiSocket(t *testing.T) {
	ranked := rankAdvice(t, 8, grid.Sz(512, 256, 32))
	if len(ranked) < 4 {
		t.Fatalf("expected several candidates, got %d", len(ranked))
	}
	if ranked[0].Config.Strategy != IslandsOfCores {
		t.Fatalf("ranked %s first, want an islands configuration", CandidateLabel(ranked[0].Config))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].TotalTime < ranked[i-1].TotalTime {
			t.Fatalf("candidates not sorted: %v then %v", ranked[i-1].TotalTime, ranked[i].TotalTime)
		}
	}
	labels := byLabel(ranked)
	for _, want := range []string{"original", "(3+1)D", "islands 1D-A", "islands 2x4", "islands 4x2"} {
		if labels[want] == nil {
			t.Errorf("missing candidate %q", want)
		}
	}
}

func TestRankCandidatesSingleSocket(t *testing.T) {
	ranked := rankAdvice(t, 1, grid.Sz(256, 128, 16))
	// On one socket the blocked strategies tie and beat the original (the
	// paper's 3.37x).
	if ranked[0].Config.Strategy == Original {
		t.Fatal("original must not win on one socket")
	}
	if last := ranked[len(ranked)-1]; last.Config.Strategy != Original {
		t.Fatalf("original must rank last on one socket, got %s", CandidateLabel(last.Config))
	}
}

func TestRankCandidatesSkipsInfeasibleMappings(t *testing.T) {
	// A domain too thin in j for the 1D-B mapping at P=8.
	if byLabel(rankAdvice(t, 8, grid.Sz(512, 4, 16)))["islands 1D-B"] != nil {
		t.Fatal("1D-B must be skipped when NJ < P")
	}
}

func TestRankCandidatesValidation(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	for _, steps := range []int{0, -1} {
		if _, err := RankCandidates(topology.SingleSocket(), prog, grid.Sz(64, 64, 8), Config{Steps: steps}, AdvisorSpace()); err == nil {
			t.Fatalf("expected an error for %d steps", steps)
		}
	}
}

func TestRankCandidatesPricesTemporalBlocking(t *testing.T) {
	labels := byLabel(rankAdvice(t, 4, grid.Sz(256, 128, 16)))
	for _, want := range []string{"islands 1D-A k=2", "islands 1D-A k=4", "islands 1D-A k=8"} {
		r := labels[want]
		if r == nil {
			t.Errorf("missing temporally blocked candidate %q", want)
			continue
		}
		if why := r.Rationale(); !strings.Contains(why, "amortized") || !strings.Contains(why, "redundant") {
			t.Errorf("%s rationale misses the trade-off: %s", want, why)
		}
	}
	// An infeasible k must be skipped, not priced as a silent k=1 twin: 4
	// islands on NI=16 leave 4-wide parts, narrower than the 12-cell halo of
	// k=4.
	thin := byLabel(rankAdvice(t, 4, grid.Sz(16, 128, 16)))
	for _, name := range []string{"islands 1D-A k=4", "islands 1D-A k=8"} {
		if thin[name] != nil {
			t.Errorf("infeasible candidate %q priced", name)
		}
	}
}

func TestRationaleMentionsCostStructure(t *testing.T) {
	for _, r := range rankAdvice(t, 4, grid.Sz(256, 128, 16)) {
		why := r.Rationale()
		want := map[Strategy]string{Original: "memory-bound", Plus31D: "sync", IslandsOfCores: "redundant"}[r.Config.Strategy]
		if !strings.Contains(why, want) {
			t.Errorf("%s rationale %q does not mention %q", CandidateLabel(r.Config), why, want)
		}
	}
}
