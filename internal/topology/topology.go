// Package topology describes SMP/NUMA machines as graphs of NUMA nodes,
// hub/backplane vertices, and interconnect links, with shortest-path routing.
// It provides the SGI UV 2000 configuration used throughout the paper's
// evaluation, plus smaller presets for tests and examples.
package topology

import (
	"fmt"
	"strings"
)

// Node is one NUMA node: a processor socket with local memory.
type Node struct {
	ID            int
	Cores         int
	ClockGHz      float64
	FlopsPerCycle int     // peak double-precision flops per cycle per core
	MemBWBytes    float64 // sustained local stream bandwidth, bytes/s
	LLCBytes      int64   // shared last-level cache capacity
	Blade         int     // blade (compute module) hosting this node
}

// PeakFlops returns the node's theoretical peak in flop/s.
func (n Node) PeakFlops() float64 {
	return float64(n.Cores) * n.ClockGHz * 1e9 * float64(n.FlopsPerCycle)
}

// Link is one interconnect edge between two vertices of the machine graph.
// Bandwidth is per direction; the simulator treats each direction as an
// independent resource.
type Link struct {
	ID      int
	A, B    int     // vertex ids
	BWBytes float64 // bytes/s per direction
	Latency float64 // seconds per traversal
}

// Vertex kinds in the machine graph. NUMA nodes occupy vertex ids
// [0, len(Nodes)); hubs and switches follow.
type vertexKind int

const (
	vertexNode vertexKind = iota
	vertexHub
)

// Machine is a complete machine description.
type Machine struct {
	Name  string
	Nodes []Node
	Links []Link

	numVertices int
	kinds       []vertexKind
	adj         [][]adjEdge // adjacency: vertex -> outgoing edges
	// paths[a][b] lists link IDs along the route from node a to node b.
	paths [][][]int
	// hops[a][b] is the number of links on the route.
	hops [][]int
}

type adjEdge struct {
	to   int
	link int
}

// NumNodes returns the number of NUMA nodes.
func (m *Machine) NumNodes() int { return len(m.Nodes) }

// TotalCores returns the machine's core count.
func (m *Machine) TotalCores() int {
	c := 0
	for _, n := range m.Nodes {
		c += n.Cores
	}
	return c
}

// PeakFlops returns the machine's theoretical peak in flop/s.
func (m *Machine) PeakFlops() float64 {
	var p float64
	for _, n := range m.Nodes {
		p += n.PeakFlops()
	}
	return p
}

// CoreNode maps a global core id to its NUMA node id. Cores are numbered
// node by node.
func (m *Machine) CoreNode(core int) int {
	for _, n := range m.Nodes {
		if core < n.Cores {
			return n.ID
		}
		core -= n.Cores
	}
	panic(fmt.Sprintf("topology: core %d out of range", core))
}

// Path returns the link IDs along the route between NUMA nodes a and b
// (empty for a == b).
func (m *Machine) Path(a, b int) []int { return m.paths[a][b] }

// Hops returns the number of links between NUMA nodes a and b.
func (m *Machine) Hops(a, b int) int { return m.hops[a][b] }

// PathLatency returns the summed link latency from node a to node b.
func (m *Machine) PathLatency(a, b int) float64 {
	var l float64
	for _, id := range m.paths[a][b] {
		l += m.Links[id].Latency
	}
	return l
}

// DiameterLatency returns the maximum path latency between the given NUMA
// nodes (all nodes when the list is empty).
func (m *Machine) DiameterLatency(nodes []int) float64 {
	if len(nodes) == 0 {
		nodes = make([]int, len(m.Nodes))
		for i := range nodes {
			nodes[i] = i
		}
	}
	var d float64
	for _, a := range nodes {
		for _, b := range nodes {
			if l := m.PathLatency(a, b); l > d {
				d = l
			}
		}
	}
	return d
}

// build finalizes the machine: validates the graph and precomputes routes
// between all NUMA node pairs via BFS (all links are treated as equal-cost
// hops, matching the NUMAlink fat-tree-like routing of the UV line).
func (m *Machine) build(numVertices int, kinds []vertexKind) error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("topology: machine %q has no nodes", m.Name)
	}
	for i, n := range m.Nodes {
		if n.ID != i {
			return fmt.Errorf("topology: node %d has ID %d", i, n.ID)
		}
		if n.Cores <= 0 || n.ClockGHz <= 0 || n.FlopsPerCycle <= 0 || n.MemBWBytes <= 0 {
			return fmt.Errorf("topology: node %d has non-positive parameters", i)
		}
	}
	m.numVertices = numVertices
	m.kinds = kinds
	m.adj = make([][]adjEdge, numVertices)
	for li, l := range m.Links {
		if l.ID != li {
			return fmt.Errorf("topology: link %d has ID %d", li, l.ID)
		}
		if l.A < 0 || l.A >= numVertices || l.B < 0 || l.B >= numVertices {
			return fmt.Errorf("topology: link %d connects unknown vertex", li)
		}
		if l.BWBytes <= 0 || l.Latency < 0 {
			return fmt.Errorf("topology: link %d has invalid parameters", li)
		}
		m.adj[l.A] = append(m.adj[l.A], adjEdge{to: l.B, link: li})
		m.adj[l.B] = append(m.adj[l.B], adjEdge{to: l.A, link: li})
	}

	n := len(m.Nodes)
	m.paths = make([][][]int, n)
	m.hops = make([][]int, n)
	for a := 0; a < n; a++ {
		prevEdge := bfs(m.adj, a, numVertices)
		m.paths[a] = make([][]int, n)
		m.hops[a] = make([]int, n)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			path, err := walkBack(prevEdge, a, b)
			if err != nil {
				return fmt.Errorf("topology: %q: %w", m.Name, err)
			}
			m.paths[a][b] = path
			m.hops[a][b] = len(path)
		}
	}
	return nil
}

// bfs returns, for each vertex, the (from, link) edge used to reach it from
// src, or (-1,-1) when unreachable.
func bfs(adj [][]adjEdge, src, numVertices int) [][2]int {
	prev := make([][2]int, numVertices)
	for i := range prev {
		prev[i] = [2]int{-1, -1}
	}
	prev[src] = [2]int{src, -1}
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, e := range adj[v] {
			if prev[e.to][0] == -1 {
				prev[e.to] = [2]int{v, e.link}
				queue = append(queue, e.to)
			}
		}
	}
	return prev
}

func walkBack(prev [][2]int, src, dst int) ([]int, error) {
	if prev[dst][0] == -1 {
		return nil, fmt.Errorf("vertex %d unreachable from %d", dst, src)
	}
	var rev []int
	for v := dst; v != src; v = prev[v][0] {
		rev = append(rev, prev[v][1])
	}
	// reverse
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

// xeonE54627v2 returns the paper's CPU: 8 cores @ 3.3 GHz with 256-bit AVX
// (4 DP lanes, one vector FP op per cycle) => 105.6 Gflop/s peak per socket,
// matching the "theoretical performance" row of Table 4. Sustained local
// stream bandwidth is calibrated from Table 1: the memory-bound original
// version moves ~1065 GB in 30.4 s on one socket => 35.3 GB/s.
func xeonE54627v2(id, blade int) Node {
	return Node{
		ID:            id,
		Cores:         8,
		ClockGHz:      3.3,
		FlopsPerCycle: 4,
		MemBWBytes:    35.3e9,
		LLCBytes:      16 << 20,
		Blade:         blade,
	}
}

// NUMAlink 6 parameters: 6.7 GB/s per direction per port (the paper, §2).
// Each UV 2000 node connects to its blade hub with two ports, and each
// blade hub connects to the IRU backplane with two ports.
const (
	nl6PortBW      = 6.7e9
	nl6PortsPerHop = 2
	nl6HopLatency  = 0.35e-6 // per-hop HARP/NL6 traversal latency
)

// UV2000 builds an SGI UV 2000 IRU with the given number of NUMA nodes
// (1..14): 8-core Xeon E5-4627v2 sockets, two per blade, blades joined by
// the IRU backplane. Vertex layout: [0,p) NUMA nodes, then one hub per
// blade, then the backplane switch.
func UV2000(p int) (*Machine, error) {
	if p < 1 || p > 14 {
		return nil, fmt.Errorf("topology: UV2000 supports 1..14 nodes, got %d", p)
	}
	m := &Machine{Name: fmt.Sprintf("SGI-UV2000-%dcpu", p)}
	blades := (p + 1) / 2
	for i := 0; i < p; i++ {
		m.Nodes = append(m.Nodes, xeonE54627v2(i, i/2))
	}
	numVertices := p + blades + 1
	kinds := make([]vertexKind, numVertices)
	for i := 0; i < p; i++ {
		kinds[i] = vertexNode
	}
	for i := p; i < numVertices; i++ {
		kinds[i] = vertexHub
	}
	hub := func(blade int) int { return p + blade }
	backplane := numVertices - 1

	addLink := func(a, b int) {
		m.Links = append(m.Links, Link{
			ID: len(m.Links), A: a, B: b,
			BWBytes: nl6PortBW * nl6PortsPerHop,
			Latency: nl6HopLatency,
		})
	}
	for i := 0; i < p; i++ {
		addLink(i, hub(i/2))
	}
	for b := 0; b < blades; b++ {
		addLink(hub(b), backplane)
	}
	if err := m.build(numVertices, kinds); err != nil {
		return nil, err
	}
	return m, nil
}

// SingleSocket builds a one-node machine with the paper's CPU, for unit
// tests and small examples.
func SingleSocket() *Machine {
	m, err := UV2000(1)
	if err != nil {
		panic(err)
	}
	return m
}

// Symmetric builds a fully connected machine of p identical nodes with the
// given per-direction link bandwidth and latency — a generic SMP/NUMA box
// for sweeps and what-if studies (examples/topologysweep).
func Symmetric(p int, linkBW, linkLatency float64) (*Machine, error) {
	if p < 1 {
		return nil, fmt.Errorf("topology: need at least one node")
	}
	if linkBW <= 0 || linkLatency < 0 {
		return nil, fmt.Errorf("topology: invalid link parameters")
	}
	m := &Machine{Name: fmt.Sprintf("symmetric-%dcpu", p)}
	for i := 0; i < p; i++ {
		m.Nodes = append(m.Nodes, xeonE54627v2(i, i))
	}
	kinds := make([]vertexKind, p)
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			m.Links = append(m.Links, Link{
				ID: len(m.Links), A: a, B: b, BWBytes: linkBW, Latency: linkLatency,
			})
		}
	}
	if err := m.build(p, kinds); err != nil {
		return nil, err
	}
	return m, nil
}

// Describe renders the machine: nodes with their capabilities, then the
// link table with bandwidths and latencies, then the hop-distance matrix
// between NUMA nodes.
func (m *Machine) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d NUMA nodes, %d cores, %.1f Gflop/s peak\n",
		m.Name, m.NumNodes(), m.TotalCores(), m.PeakFlops()/1e9)
	for _, n := range m.Nodes {
		fmt.Fprintf(&b, "  node %2d (blade %d): %d cores @ %.1f GHz, %.1f GB/s mem, %d MiB LLC\n",
			n.ID, n.Blade, n.Cores, n.ClockGHz, n.MemBWBytes/1e9, n.LLCBytes>>20)
	}
	for _, l := range m.Links {
		fmt.Fprintf(&b, "  link %2d: %d <-> %d, %.1f GB/s/dir, %.2f us\n",
			l.ID, l.A, l.B, l.BWBytes/1e9, l.Latency*1e6)
	}
	b.WriteString("  hops:")
	for a := 0; a < m.NumNodes(); a++ {
		b.WriteString("\n   ")
		for bn := 0; bn < m.NumNodes(); bn++ {
			fmt.Fprintf(&b, " %d", m.Hops(a, bn))
		}
	}
	b.WriteByte('\n')
	return b.String()
}
