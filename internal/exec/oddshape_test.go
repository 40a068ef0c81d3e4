package exec

import (
	"fmt"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestOddShapeEquivalence runs all four execution paths on deliberately
// awkward grids — fewer i-columns than machine cores, j-spans narrower than a
// team, k-spans thinner than the widest stencil extent — so the compiled
// schedules contain empty chunks, degenerate interior splits (no interior at
// all along some dimensions) and all-pinned border pieces. Every path must
// still reproduce the sequential reference bit-for-bit.
func TestOddShapeEquivalence(t *testing.T) {
	domains := []grid.Size{
		grid.Sz(13, 7, 5), // NI=13 < 24 cores: empty worker chunks
		grid.Sz(5, 9, 4),  // k thinner than the pseudo-velocity extent
	}
	const steps = 2
	m, err := topology.UV2000(3) // 3 nodes x 8 cores = 24 workers
	if err != nil {
		t.Fatal(err)
	}
	for _, domain := range domains {
		_, want := referenceMPDATA(domain, steps)
		cases := []struct {
			name string
			cfg  Config
		}{
			{"original", Config{Strategy: Original}},
			{"plus31d", Config{Strategy: Plus31D, BlockI: 3}},
			{"islands", Config{Strategy: IslandsOfCores, BlockI: 3}},
			{"core-islands", Config{Strategy: IslandsOfCores, CoreIslands: true, BlockI: 3}},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%v/%s", domain, tc.name), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Machine = m
				cfg.Boundary = stencil.Clamp
				cfg.Steps = steps
				got := runStrategy(t, cfg, domain)
				if diff := grid.MaxAbsDiff(got, want); diff != 0 {
					t.Fatalf("%s on %v differs from reference: max |diff| = %g", tc.name, domain, diff)
				}
			})
		}
	}
}

// TestDescribeSchedule checks the schedule introspection: the rendering names
// every team and the stats agree with the strategy's synchronization shape.
func TestDescribeSchedule(t *testing.T) {
	domain := grid.Sz(16, 12, 6)
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	state := freshState(domain)
	runner, err := NewRunner(Config{
		Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 1, BlockI: 8,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()

	st := runner.Schedule().Stats()
	if st.KernelItems == 0 {
		t.Fatal("no kernel items in islands schedule")
	}
	if st.Feedback != FeedbackSwapHalo {
		t.Fatalf("islands feedback mode = %v, want swap+halo", st.Feedback)
	}
	if st.SwapFeedback || runner.Schedule().SwapFeedback() {
		t.Fatal("islands schedule must not use the shared-environment swap")
	}
	if st.CopyItems == 0 || st.HaloStrips == 0 || st.HaloBytes == 0 {
		t.Fatalf("swap+halo schedule has %d copy items, %d strips, %d bytes — want all > 0",
			st.CopyItems, st.HaloStrips, st.HaloBytes)
	}
	// The exchange must be sized by the halo surface, not the part volume:
	// the strips of one step must stay well under one island part.
	if part := int64(runner.Plan().Parts[0].Cells()) * grid.CellBytes; st.HaloBytes >= part {
		t.Fatalf("halo exchange moves %d bytes/step, not smaller than one part (%d bytes)", st.HaloBytes, part)
	}
	if st.Barriers == 0 || st.BarrierWaits == 0 {
		t.Fatal("islands schedule has no barriers")
	}
	out := runner.DescribeSchedule()
	for _, wantSub := range []string{"compiled schedule", "team  0", "team  1", "kernel items",
		"feedback mode: swap+halo", "halo strips", "feedback=swap+halo"} {
		if !strings.Contains(out, wantSub) {
			t.Fatalf("DescribeSchedule output missing %q:\n%s", wantSub, out)
		}
	}

	// The shared-environment strategies swap instead of copying.
	state2 := freshState(domain)
	r2, err := NewRunner(Config{
		Machine: m, Strategy: Original, Boundary: stencil.Clamp, Steps: 1,
	}, mpdata.NewProgram(), state2.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if st2 := r2.Schedule().Stats(); !st2.SwapFeedback || st2.Feedback != FeedbackSwap || st2.CopyItems != 0 {
		t.Fatalf("original schedule: feedback=%v CopyItems=%d, want swap with no copies", st2.Feedback, st2.CopyItems)
	}

	// Parts narrower than the step halo must fall back to whole-part
	// publish copies — loudly, with the reason in the stats and rendering.
	state3 := freshState(grid.Sz(4, 12, 6)) // i split 2+2 < the ±3 psi halo
	r3, err := NewRunner(Config{
		Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 1, BlockI: 2,
	}, mpdata.NewProgram(), state3.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	st3 := r3.Schedule().Stats()
	if st3.Feedback != FeedbackCopy || st3.CopyItems == 0 || st3.HaloStrips != 0 {
		t.Fatalf("narrow-part schedule: feedback=%v copies=%d strips=%d, want copy fallback",
			st3.Feedback, st3.CopyItems, st3.HaloStrips)
	}
	if st3.FallbackReason == "" || !strings.Contains(st3.FallbackReason, "narrower") {
		t.Fatalf("narrow-part fallback reason = %q, want a loud narrow-part explanation", st3.FallbackReason)
	}
	if out := r3.DescribeSchedule(); !strings.Contains(out, "halo fallback") {
		t.Fatalf("DescribeSchedule does not surface the fallback:\n%s", out)
	}
}
