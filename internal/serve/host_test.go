package serve

import (
	"fmt"
	"testing"

	"islands/internal/stream"
	"islands/internal/topology"
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
