package topology

import (
	"math"
	"testing"
)

func TestClusterOfUVLayout(t *testing.T) {
	m, err := ClusterOfUV(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 12 || m.TotalCores() != 96 {
		t.Fatalf("cluster size wrong: %d nodes, %d cores", m.NumNodes(), m.TotalCores())
	}
	want := 105.6e9 * 12
	if got := m.PeakFlops(); math.Abs(got-want) > 1e6 {
		t.Fatalf("peak = %v, want %v", got, want)
	}
}

func TestClusterRouting(t *testing.T) {
	m, err := ClusterOfUV(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Same blade within an IRU: 2 hops (node-hub-node).
	if got := m.Hops(0, 1); got != 2 {
		t.Fatalf("intra-blade hops = %d, want 2", got)
	}
	// Different blades, same IRU: 4 hops.
	if got := m.Hops(0, 2); got != 4 {
		t.Fatalf("intra-IRU hops = %d, want 4", got)
	}
	// Different IRUs: node-hub-backplane-switch-backplane-hub-node = 6.
	if got := m.Hops(0, 4); got != 6 {
		t.Fatalf("inter-IRU hops = %d, want 6", got)
	}
	// Inter-IRU latency dominated by the two InfiniBand rails.
	lat := m.PathLatency(0, 4)
	if lat < 2*ibFDRLatency {
		t.Fatalf("inter-IRU latency %v below two IB rails", lat)
	}
	intra := m.PathLatency(0, 2)
	if lat <= intra {
		t.Fatal("inter-IRU latency must exceed intra-IRU latency")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := ClusterOfUV(0, 4); err == nil {
		t.Fatal("expected error for 0 IRUs")
	}
	if _, err := ClusterOfUV(2, 15); err == nil {
		t.Fatal("expected error for 15 nodes per IRU")
	}
}

// TestIRUOfNode: ClusterOfUV numbers its nodes IRU by IRU, so node n sits in
// IRU n / nodesPerIRU and reaches exactly its IRU mates without crossing the
// cluster switch (at most 4 hops), odd IRU sizes included.
func TestIRUOfNode(t *testing.T) {
	const irus, per = 3, 5
	m, err := ClusterOfUV(irus, per)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < irus*per; a++ {
		for b := 0; b < irus*per; b++ {
			if same, local := a/per == b/per, m.Hops(a, b) <= 4; same != local {
				t.Fatalf("nodes %d and %d: same IRU %v but %d hops apart", a, b, same, m.Hops(a, b))
			}
		}
	}
}

func TestClusterPathsValid(t *testing.T) {
	m, err := ClusterOfUV(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < m.NumNodes(); a++ {
		for b := 0; b < m.NumNodes(); b++ {
			if a == b {
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
					t.Fatalf("path %d->%d broken at vertex %d", a, b, at)
				}
			}
			if at != b {
				t.Fatalf("path %d->%d ends at %d", a, b, at)
			}
		}
	}
}
