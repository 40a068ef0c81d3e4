package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUV2000Peak(t *testing.T) {
	// Table 4's "theoretical performance" row: 105.6 Gflop/s per CPU.
	for p := 1; p <= 14; p++ {
		m, err := UV2000(p)
		if err != nil {
			t.Fatal(err)
		}
		want := 105.6e9 * float64(p)
		if got := m.PeakFlops(); math.Abs(got-want) > 1e6 {
			t.Fatalf("P=%d: peak = %v, want %v", p, got, want)
		}
		if got := m.TotalCores(); got != 8*p {
			t.Fatalf("P=%d: cores = %d, want %d", p, got, 8*p)
		}
	}
}

func TestUV2000Range(t *testing.T) {
	if _, err := UV2000(0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	if _, err := UV2000(15); err == nil {
		t.Fatal("expected error for 15 nodes")
	}
}

func TestCoreNode(t *testing.T) {
	m, err := UV2000(3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ core, node int }{
		{0, 0}, {7, 0}, {8, 1}, {15, 1}, {16, 2}, {23, 2},
	}
	for _, c := range cases {
		if got := m.CoreNode(c.core); got != c.node {
			t.Errorf("CoreNode(%d) = %d, want %d", c.core, got, c.node)
		}
	}
}

func TestCoreNodePanicsOutOfRange(t *testing.T) {
	m := SingleSocket()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CoreNode(8)
}

func TestUV2000Routing(t *testing.T) {
	m, err := UV2000(14)
	if err != nil {
		t.Fatal(err)
	}
	// Same blade: node -> hub -> node = 2 hops.
	if got := m.Hops(0, 1); got != 2 {
		t.Fatalf("intra-blade hops = %d, want 2", got)
	}
	// Different blades: node -> hub -> backplane -> hub -> node = 4 hops.
	if got := m.Hops(0, 13); got != 4 {
		t.Fatalf("inter-blade hops = %d, want 4", got)
	}
	if got := m.Hops(5, 5); got != 0 {
		t.Fatalf("self hops = %d, want 0", got)
	}
	// Path latency accumulates per hop.
	if got, want := m.PathLatency(0, 13), 4*nl6HopLatency; math.Abs(got-want) > 1e-12 {
		t.Fatalf("path latency = %v, want %v", got, want)
	}
}

func TestUV2000PathsValid(t *testing.T) {
	m, err := UV2000(14)
	if err != nil {
		t.Fatal(err)
	}
	// Every path must be a connected walk from a to b over real links.
	for a := 0; a < 14; a++ {
		for b := 0; b < 14; b++ {
			if a == b {
				if len(m.Path(a, b)) != 0 {
					t.Fatalf("self path not empty for %d", a)
				}
				continue
			}
			at := a
			for _, li := range m.Path(a, b) {
				l := m.Links[li]
				switch at {
				case l.A:
					at = l.B
				case l.B:
					at = l.A
				default:
					t.Fatalf("path %d->%d: link %d does not touch vertex %d", a, b, li, at)
				}
			}
			if at != b {
				t.Fatalf("path %d->%d ends at %d", a, b, at)
			}
		}
	}
}

func TestPathSymmetry(t *testing.T) {
	f := func(p8 uint8, a8, b8 uint8) bool {
		p := int(p8%14) + 1
		m, err := UV2000(p)
		if err != nil {
			return false
		}
		a, b := int(a8)%p, int(b8)%p
		return m.Hops(a, b) == m.Hops(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetricMachine(t *testing.T) {
	m, err := Symmetric(4, 10e9, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			want := 1
			if a == b {
				want = 0
			}
			if got := m.Hops(a, b); got != want {
				t.Fatalf("hops(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
	if _, err := Symmetric(0, 1, 1); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	if _, err := Symmetric(2, -1, 1); err == nil {
		t.Fatal("expected error for bad bandwidth")
	}
}

func TestNodePeak(t *testing.T) {
	n := xeonE54627v2(0, 0)
	if got := n.PeakFlops(); math.Abs(got-105.6e9) > 1e6 {
		t.Fatalf("socket peak = %v, want 105.6e9", got)
	}
}

func TestDiameterLatencySubset(t *testing.T) {
	m, err := UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	intra := m.DiameterLatency([]int{0, 1})
	inter := m.DiameterLatency([]int{0, 2})
	if intra >= inter {
		t.Fatalf("intra-blade latency %v must be below inter-blade %v", intra, inter)
	}
	if got := m.DiameterLatency(nil); got != inter {
		t.Fatalf("full diameter latency = %v, want %v", got, inter)
	}
}

// TestGflopsFormat: Describe states the peak in Gflop/s with one decimal.
func TestGflopsFormat(t *testing.T) {
	m, err := UV2000(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := "8 cores, 105.6 Gflop/s peak\n"; !strings.Contains(m.Describe(), want) {
		t.Fatalf("describe missing %q:\n%s", want, m.Describe())
	}
}

func TestDescribe(t *testing.T) {
	m, err := UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Describe()
	for _, want := range []string{
		"SGI-UV2000-4cpu: 4 NUMA nodes, 32 cores",
		"node  0 (blade 0)",
		"node  3 (blade 1)",
		"13.4 GB/s/dir",
		"hops:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe missing %q:\n%s", want, out)
		}
	}
}
