package exec

import (
	"math"
	"testing"

	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

func uv(t *testing.T, p int) *topology.Machine {
	t.Helper()
	m, err := topology.UV2000(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMachModelResourceLayout(t *testing.T) {
	m := uv(t, 3)
	mm := newMachModel(m, DefaultParams())
	if len(mm.coreRes) != 24 || len(mm.memRes) != 3 || len(mm.l3Res) != 3 {
		t.Fatalf("resource counts wrong: %d cores, %d mem, %d l3",
			len(mm.coreRes), len(mm.memRes), len(mm.l3Res))
	}
	if len(mm.linkRes) != len(m.Links) {
		t.Fatalf("link resources = %d, want %d", len(mm.linkRes), len(m.Links))
	}
}

func TestCoreRateDSMDiscontinuity(t *testing.T) {
	single := newMachModel(uv(t, 1), DefaultParams())
	multi := newMachModel(uv(t, 2), DefaultParams())
	if single.coreRate != CacheKernelFlopsPerCore {
		t.Fatalf("single-socket rate = %v", single.coreRate)
	}
	want := CacheKernelFlopsPerCore * DSMCoherenceFactor
	if math.Abs(multi.coreRate-want) > 1 {
		t.Fatalf("multi-socket rate = %v, want %v", multi.coreRate, want)
	}
}

func TestPathResDirectionality(t *testing.T) {
	m := uv(t, 4)
	mm := newMachModel(m, DefaultParams())
	fwd := mm.pathRes(0, 3)
	rev := mm.pathRes(3, 0)
	if len(fwd) != m.Hops(0, 3) || len(rev) != m.Hops(3, 0) {
		t.Fatalf("path lengths wrong: %d/%d vs %d hops", len(fwd), len(rev), m.Hops(0, 3))
	}
	// Opposite directions must use disjoint resources (full duplex).
	used := map[int]bool{}
	for _, r := range fwd {
		used[r] = true
	}
	for _, r := range rev {
		if used[r] {
			t.Fatalf("resource %d shared between directions", r)
		}
	}
	if len(mm.pathRes(2, 2)) != 0 {
		t.Fatal("self path must be empty")
	}
}

func TestReadFlowCaps(t *testing.T) {
	m := uv(t, 4)
	mm := newMachModel(m, DefaultParams())
	local := mm.readFlow(1, 1, 1e6)
	if local.MaxRate != 0 {
		t.Fatalf("local read must be uncapped, got %v", local.MaxRate)
	}
	if len(local.Resources) != 1 || local.Resources[0] != mm.memRes[1] {
		t.Fatalf("local read resources = %v", local.Resources)
	}
	near := mm.readFlow(1, 0, 1e6) // same blade: 2 hops
	far := mm.readFlow(3, 0, 1e6)  // different blade: 4 hops
	if near.MaxRate == 0 || far.MaxRate == 0 {
		t.Fatal("remote reads must be latency-capped")
	}
	if far.MaxRate >= near.MaxRate {
		t.Fatalf("longer path must cap harder: far %v vs near %v", far.MaxRate, near.MaxRate)
	}
}

func TestWriteFlowsRFO(t *testing.T) {
	m := uv(t, 2)
	mm := newMachModel(m, DefaultParams())
	local := mm.writeFlows(0, 0, 1e6)
	if len(local) != 1 {
		t.Fatalf("local write must be a single flow, got %d", len(local))
	}
	remote := mm.writeFlows(0, 1, 1e6)
	if len(remote) != 2 {
		t.Fatalf("remote write must add a read-for-ownership flow, got %d", len(remote))
	}
	// RFO travels the home->writer direction: its first resource is the
	// home memory controller.
	if remote[1].Resources[0] != mm.memRes[1] {
		t.Fatalf("RFO must start at the home controller")
	}
}

func TestC2CFlow(t *testing.T) {
	m := uv(t, 4)
	mm := newMachModel(m, DefaultParams())
	intra := mm.c2cFlow(2, 2, 4096)
	if len(intra.Resources) != 1 || intra.Resources[0] != mm.l3Res[2] || intra.MaxRate != 0 {
		t.Fatalf("intra-socket c2c must ride the L3: %+v", intra)
	}
	inter := mm.c2cFlow(0, 3, 4096)
	if inter.MaxRate <= 0 {
		t.Fatal("cross-socket c2c must be latency-capped")
	}
	// Directory-mediated transfers are far slower than prefetched streams.
	stream := mm.readFlow(3, 0, 4096)
	if inter.MaxRate >= stream.MaxRate {
		t.Fatalf("c2c cap %v must be below stream cap %v", inter.MaxRate, stream.MaxRate)
	}
}

func TestBarrierCostMonotonic(t *testing.T) {
	m14 := uv(t, 14)
	mm := newMachModel(m14, DefaultParams())
	intra := mm.barrierCost([]int{0}, 8)
	blade := mm.barrierCost([]int{0, 1}, 16)
	machine := mm.barrierCost(allNodes(14), 112)
	if !(intra < blade && blade < machine) {
		t.Fatalf("barrier costs must grow with span: %v %v %v", intra, blade, machine)
	}
	// One-core "barrier" still has positive cost (dispatch overhead).
	if mm.barrierCost([]int{0}, 1) <= 0 {
		t.Fatal("barrier cost must be positive")
	}
}

func TestStageHaloSums(t *testing.T) {
	prog := mustMPDATA()
	// psiStar reads f1 at i-1, f2 at j-1, f3 at k-1, psi and h pointwise.
	idx := prog.StageIndex("psiStar")
	h := groupHalo(stencil.SingletonFusion(prog), idx)
	if h.iLo != 1 || h.iHi != 0 || h.jLo != 1 || h.jHi != 0 {
		t.Fatalf("psiStar halo = %+v", h)
	}
}

// mustMPDATA returns the default MPDATA program for model unit tests.
func mustMPDATA() *stencil.Program {
	return &mpdata.NewProgram().Program
}
