package topology

import "fmt"

// Cluster parameters for joining several UV 2000 IRUs (or comparable
// shared-memory bricks) over an external network — the paper's §6 plan of
// "using MPI for extending the scalability of our approach for much larger
// system configurations". The islands abstraction carries over unchanged:
// an island per NUMA node, with the inter-IRU links simply being slower
// edges of the same machine graph.
const (
	// ibFDRBW is the per-direction bandwidth of a 4x FDR InfiniBand rail
	// (IT4Innovations' Salomon interconnect, which the UV 2000 shares
	// infrastructure with).
	ibFDRBW = 6.8e9
	// ibFDRLatency is the one-way MPI-level latency of such a rail.
	ibFDRLatency = 1.5e-6
)

// ClusterOfUV builds a machine of `irus` UV 2000 units with nodesPerIRU NUMA
// nodes each (1..14), joined by an InfiniBand-class switch. Vertex layout:
// all NUMA nodes first (so node IDs stay 0..N-1), then per-IRU hubs and
// backplanes, then the cluster switch.
func ClusterOfUV(irus, nodesPerIRU int) (*Machine, error) {
	if irus < 1 {
		return nil, fmt.Errorf("topology: need at least one IRU, got %d", irus)
	}
	if nodesPerIRU < 1 || nodesPerIRU > 14 {
		return nil, fmt.Errorf("topology: 1..14 nodes per IRU, got %d", nodesPerIRU)
	}
	totalNodes := irus * nodesPerIRU
	bladesPerIRU := (nodesPerIRU + 1) / 2
	m := &Machine{Name: fmt.Sprintf("cluster-%dxUV2000-%d", irus, nodesPerIRU)}
	for i := 0; i < totalNodes; i++ {
		m.Nodes = append(m.Nodes, xeonE54627v2(i, i/2))
	}

	// Vertices: nodes, then per-IRU [hubs..., backplane], then switch.
	numVertices := totalNodes + irus*(bladesPerIRU+1) + 1
	kinds := make([]vertexKind, numVertices)
	for i := 0; i < totalNodes; i++ {
		kinds[i] = vertexNode
	}
	for i := totalNodes; i < numVertices; i++ {
		kinds[i] = vertexHub
	}
	hub := func(iru, blade int) int {
		return totalNodes + iru*(bladesPerIRU+1) + blade
	}
	backplane := func(iru int) int {
		return totalNodes + iru*(bladesPerIRU+1) + bladesPerIRU
	}
	sw := numVertices - 1

	addNL := func(a, b int) {
		m.Links = append(m.Links, Link{
			ID: len(m.Links), A: a, B: b,
			BWBytes: nl6PortBW * nl6PortsPerHop,
			Latency: nl6HopLatency,
		})
	}
	for iru := 0; iru < irus; iru++ {
		for n := 0; n < nodesPerIRU; n++ {
			node := iru*nodesPerIRU + n
			addNL(node, hub(iru, n/2))
		}
		for b := 0; b < bladesPerIRU; b++ {
			addNL(hub(iru, b), backplane(iru))
		}
		// External rail from the IRU backplane to the cluster switch.
		m.Links = append(m.Links, Link{
			ID: len(m.Links), A: backplane(iru), B: sw,
			BWBytes: ibFDRBW,
			Latency: ibFDRLatency,
		})
	}
	if err := m.build(numVertices, kinds); err != nil {
		return nil, err
	}
	return m, nil
}
