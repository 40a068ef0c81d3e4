package serve

import (
	"fmt"
	"testing"

	"islands/internal/stream"
	"islands/internal/topology"
	"islands/internal/tune"
)

// withHost makes engines built during the test execute on h.
func withHost(t *testing.T, h topology.Host) {
	t.Helper()
	prev := host
	host = func() topology.Host { return h }
	t.Cleanup(func() { host = prev })
}

// uvHost is the host whose reshape is the identity on UV2000(p): eight CPUs
// per socket, caches unknown (LLCBytes kept).
func uvHost(p int) topology.Host { return topology.Host{Nodes: 1, CPUs: 8 * p} }

// runSpec runs a spec's job on a fresh engine and returns the engine with
// its checksums; the caller closes it.
func runSpec(t *testing.T, spec Spec) (*solverEngine, Checksums) {
	t.Helper()
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewSolverEngine(ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Reset(); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ns.Steps; s++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return eng.(*solverEngine), eng.Checksums()
}

// TestHostShapedEnginesAreBitIdentical: an engine compiled on the host's
// shape (fewer workers per island, blocks sized to their L2) computes the
// same bits as the original arm on the UV 2000's shape, for every arm and
// both boundaries. The grids are the serving workloads' and the ones whose
// islands end in a one-plane block at the host's widths — the periodic seam
// wrap.go orders. A streamed job on the host's shape matches the resident run.
func TestHostShapedEnginesAreBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("72 engine runs of up to 128x128x16")
	}
	const steps = 3
	hosts := []topology.Host{
		{Nodes: 1, CPUs: 2, L2Bytes: 2 << 20},
		{Nodes: 1, CPUs: 4, L2Bytes: 1 << 20},
	}
	arms := []Spec{{Strategy: "original"}, {Strategy: "3+1d"}, {Strategy: "islands"}, {Strategy: "islands", CoreIslands: true}}
	seams := 0
	for _, bc := range []string{"clamp", "periodic"} {
		for _, g := range []string{"26x128x16", "50x128x16", "98x64x32", "128x128x16"} {
			withHost(t, uvHost(2))
			ref, want := runSpec(t, Spec{Grid: g, Steps: steps, Strategy: "original", Boundary: bc})
			ref.Close()
			for _, h := range hosts {
				withHost(t, h)
				for _, arm := range arms {
					arm.Grid, arm.Steps, arm.Boundary = g, steps, bc
					name := fmt.Sprintf("%s/%s/%d cpus/%s core=%v", bc, g, h.CPUs, arm.Strategy, arm.CoreIslands)
					eng, got := runSpec(t, arm)
					info, blocks := eng.Info(), eng.runner.Plan().Blocks
					eng.Close()
					if !sameBits(got, want) {
						t.Errorf("%s: checksums %+v, the original arm on the UV 2000 %+v", name, got, want)
					}
					if info.Workers != h.Workers(2) {
						t.Errorf("%s: %d workers per island, want %d", name, info.Workers, h.Workers(2))
					}
					if arm.Strategy == "islands" && bc == "periodic" {
						top := blocks[len(blocks)-1]
						if top[len(top)-1].I1-top[len(top)-1].I0 == 1 {
							seams++
						}
					}
				}
			}
		}
	}
	if seams == 0 {
		t.Fatal("no periodic islands case ended in a one-plane block: the seam went unchecked")
	}

	h := hosts[0]
	withHost(t, h)
	spec := Spec{Grid: "384x64x16", Steps: 4, Strategy: "islands"}
	eng, want := runSpec(t, spec)
	eng.Close()
	spec.Streamed, spec.MemoryBudgetMB = true, 16
	ns, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := OpenStream(ns, stream.Options{Dir: t.TempDir()}, ns.MemoryBudgetMB, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.Plan().Tiles) < 2 {
		t.Fatalf("16 MiB streamed %s as %d tile(s)", spec.Grid, len(st.Plan().Tiles))
	}
	if err := st.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := st.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if got := (Checksums{Sum: ck.Sum, Min: ck.Min, Max: ck.Max, MassDrift: want.MassDrift}); !sameBits(got, want) {
		t.Errorf("streamed %s on %d cpus: checksums %+v, resident %+v", spec.Grid, h.CPUs, got, want)
	}
}

// TestStreamedFootprintFollowsTheHost: a streamed core-islands job's tile
// engines run on the host's shape, with one stage environment per host core,
// so its footprint is priced on that shape and not on the UV 2000's 8 cores
// per socket. On a 2-, 16- and 64-CPU host the engines' arena stays within
// both what the pick priced and the budget, and the streamed result stays
// bit-identical to the resident run on the same host.
func TestStreamedFootprintFollowsTheHost(t *testing.T) {
	const budgetMB = 96
	spec := Spec{Grid: "384x64x16", Steps: 4, Strategy: "islands", CoreIslands: true}
	for _, cpus := range []int{2, 16, 64} {
		withHost(t, topology.Host{Nodes: 1, CPUs: cpus})
		eng, want := runSpec(t, spec)
		eng.Close()
		streamed := spec
		streamed.Streamed, streamed.MemoryBudgetMB = true, budgetMB
		ns, err := streamed.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		st, picked, err := OpenStream(ns, stream.Options{Dir: t.TempDir()}, budgetMB, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Run(); err != nil {
			t.Fatal(err)
		}
		ck, err := st.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		peak := st.Stats().PeakEngineBytes
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if picked.Resident {
			t.Fatalf("%d cpus: %s fits %d MiB whole, so the test checks nothing", cpus, spec.Grid, budgetMB)
		}
		// The footprint as the picker priced it: on the host's shape.
		cfg, err := ns.ExecConfig()
		if err != nil {
			t.Fatal(err)
		}
		_, prog, err := ns.program()
		if err != nil {
			t.Fatal(err)
		}
		priced, err := tune.ResidentBytes(host().Run(cfg.Machine), &prog.Program, ClassOf(ns), tune.KnobsOf(cfg, ns.Domain), ns.Steps, picked.TilePlanes, picked.K)
		if err != nil {
			t.Fatal(err)
		}
		if float64(peak) > priced || peak > budgetMB<<20 {
			t.Errorf("%d cpus, %s: tile engines hold %.1f MiB, priced %.1f MiB under a %d MiB budget",
				cpus, picked.Label, float64(peak)/(1<<20), priced/(1<<20), budgetMB)
		}
		if got := (Checksums{Sum: ck.Sum, Min: ck.Min, Max: ck.Max, MassDrift: want.MassDrift}); !sameBits(got, want) {
			t.Errorf("streamed %s on %d cpus: checksums %+v, resident %+v", spec.Grid, cpus, got, want)
		}
	}
}
