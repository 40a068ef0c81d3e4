package grid

import "fmt"

// PlacementPolicy selects how a field's memory pages are distributed across
// NUMA nodes. The paper shows (Table 1) that the original MPDATA version is
// sensitive to exactly this choice: serial first-touch puts every page on
// node 0, parallel first-touch homes each page on the node whose threads
// initialize (and later use) it.
type PlacementPolicy int

const (
	// FirstTouchSerial models a sequential initialization loop: the first
	// touch happens on the master thread, so every page lands on node 0.
	FirstTouchSerial PlacementPolicy = iota
	// FirstTouchParallel models parallel initialization with the same
	// work distribution as the compute loops: pages land on the node of
	// the core that will process them.
	FirstTouchParallel
	// Interleaved round-robins pages across all nodes (numactl --interleave).
	Interleaved
)

func (p PlacementPolicy) String() string {
	switch p {
	case FirstTouchSerial:
		return "first-touch-serial"
	case FirstTouchParallel:
		return "first-touch-parallel"
	case Interleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// PageBytes is the OS page size assumed by the placement model.
const PageBytes = 4096

// CellBytes is the size of one double-precision grid cell.
const CellBytes = 8

// Placement records, for one field, which NUMA node homes each page.
type Placement struct {
	Size     Size
	Policy   PlacementPolicy
	NumNodes int
	// pageNode[p] is the home node of page p. Pages are counted over the
	// flat i-major layout of the field.
	pageNode []int
}

// cellsPerPage is the number of float64 cells per OS page.
const cellsPerPage = PageBytes / CellBytes

// NewPlacement computes the page->node map for a field of the given size
// under the given policy on a machine with numNodes NUMA nodes. For
// FirstTouchParallel, ownerOf maps a flat cell index to the node that first
// touches it (typically derived from the compute partitioning); it is
// ignored by the other policies and may be nil for them.
func NewPlacement(s Size, policy PlacementPolicy, numNodes int, ownerOf func(cell int) int) *Placement {
	if numNodes <= 0 {
		panic("grid: placement needs at least one node")
	}
	nPages := (s.Cells()*CellBytes + PageBytes - 1) / PageBytes
	p := &Placement{Size: s, Policy: policy, NumNodes: numNodes, pageNode: make([]int, nPages)}
	switch policy {
	case FirstTouchSerial:
		// all zeros already
	case Interleaved:
		for pg := range p.pageNode {
			p.pageNode[pg] = pg % numNodes
		}
	case FirstTouchParallel:
		if ownerOf == nil {
			panic("grid: FirstTouchParallel requires an ownerOf function")
		}
		for pg := range p.pageNode {
			// The first cell of the page decides the home node, as with
			// real first-touch where the first store allocates the page.
			cell := pg * cellsPerPage
			if cell >= s.Cells() {
				cell = s.Cells() - 1
			}
			node := ownerOf(cell)
			if node < 0 || node >= numNodes {
				panic(fmt.Sprintf("grid: ownerOf returned node %d outside [0,%d)", node, numNodes))
			}
			p.pageNode[pg] = node
		}
	default:
		panic("grid: unknown placement policy")
	}
	return p
}

// NumPages returns how many OS pages the field occupies.
func (p *Placement) NumPages() int { return len(p.pageNode) }

// NodeOfPage returns the home node of page pg.
func (p *Placement) NodeOfPage(pg int) int { return p.pageNode[pg] }

// NodeOfCell returns the home node of the page containing the flat cell index.
func (p *Placement) NodeOfCell(cell int) int {
	return p.pageNode[cell/cellsPerPage]
}

// BytesPerNode returns, for a contiguous flat cell range [cell0, cell1),
// how many bytes live on each node. The result slice has NumNodes entries.
func (p *Placement) BytesPerNode(cell0, cell1 int) []int64 {
	out := make([]int64, p.NumNodes)
	p.addBytesPerNode(out, cell0, cell1)
	return out
}

// addBytesPerNode adds the bytes of [cell0, cell1) to out, node by node.
func (p *Placement) addBytesPerNode(out []int64, cell0, cell1 int) {
	for c := cell0; c < cell1; {
		pg := c / cellsPerPage
		end := (pg + 1) * cellsPerPage
		if end > cell1 {
			end = cell1
		}
		out[p.pageNode[pg]] += int64(end-c) * CellBytes
		c = end
	}
}

// RegionBytesPerNode returns how many bytes of the field region r live on
// each node, walking the i-major contiguous runs of the region.
func (p *Placement) RegionBytesPerNode(r Region) []int64 {
	out := make([]int64, p.NumNodes)
	r = r.Clamp(p.Size)
	if r.Empty() {
		return out
	}
	nj, nk := p.Size.NJ, p.Size.NK
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			row := (i*nj + j) * nk
			p.addBytesPerNode(out, row+r.K0, row+r.K1)
		}
	}
	return out
}

// OwnerByIPartition returns an ownerOf function that assigns cells to nodes
// according to a 1D partition of the i dimension into numNodes equal parts,
// the partitioning used by MPDATA's parallel initialization (variant A).
func OwnerByIPartition(s Size, numNodes int) func(cell int) int {
	rowCells := s.NJ * s.NK
	return func(cell int) int {
		i := cell / rowCells
		node := i * numNodes / s.NI
		if node >= numNodes {
			node = numNodes - 1
		}
		return node
	}
}
