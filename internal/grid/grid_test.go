package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSizeCells(t *testing.T) {
	s := Size{4, 5, 6}
	if got := s.Cells(); got != 120 {
		t.Fatalf("Cells() = %d, want 120", got)
	}
	if !s.Valid() {
		t.Fatal("expected valid size")
	}
	if (Size{0, 5, 6}).Valid() {
		t.Fatal("zero extent must be invalid")
	}
	if (Size{4, -1, 6}).Valid() {
		t.Fatal("negative extent must be invalid")
	}
}

func TestRegionBasics(t *testing.T) {
	s := Size{8, 8, 8}
	w := WholeRegion(s)
	if w.Cells() != 512 {
		t.Fatalf("whole region cells = %d, want 512", w.Cells())
	}
	r := Region{2, 5, 1, 4, 0, 8}
	if r.Cells() != 3*3*8 {
		t.Fatalf("region cells = %d, want %d", r.Cells(), 3*3*8)
	}
	if !w.ContainsRegion(r) {
		t.Fatal("whole region must contain r")
	}
	if !r.Contains(2, 1, 0) || r.Contains(5, 1, 0) {
		t.Fatal("Contains half-open semantics broken")
	}
	empty := Region{3, 3, 0, 4, 0, 4}
	if !empty.Empty() || empty.Cells() != 0 {
		t.Fatal("empty region misdetected")
	}
	if !w.ContainsRegion(empty) {
		t.Fatal("empty region must be contained in any region")
	}
}

func TestRegionIntersect(t *testing.T) {
	a := Region{0, 4, 0, 4, 0, 4}
	b := Region{2, 6, 2, 6, 2, 6}
	got := a.Intersect(b)
	want := Region{2, 4, 2, 4, 2, 4}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Disjoint boxes intersect to the canonical empty region.
	c := Region{5, 8, 0, 4, 0, 4}
	if !a.Intersect(c).Empty() {
		t.Fatal("disjoint intersection must be empty")
	}
}

func TestRegionGrowClamp(t *testing.T) {
	s := Size{10, 10, 10}
	r := Region{4, 6, 4, 6, 4, 6}
	g := r.Grow(2, 2, 1, 1, 0, 0)
	want := Region{2, 8, 3, 7, 4, 6}
	if g != want {
		t.Fatalf("Grow = %v, want %v", g, want)
	}
	over := Region{0, 10, 0, 10, 0, 10}.Grow(5, 5, 5, 5, 5, 5).Clamp(s)
	if !over.Equal(WholeRegion(s)) {
		t.Fatalf("Clamp = %v, want whole region", over)
	}
}

func TestRegionIntersectProperties(t *testing.T) {
	gen := func(r *rand.Rand) Region {
		lo := func() int { return r.Intn(10) }
		sp := func() int { return r.Intn(6) }
		a, b, c := lo(), lo(), lo()
		return Region{a, a + sp(), b, b + sp(), c, c + sp()}
	}
	// Intersection is commutative and contained in both operands.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if !ab.Equal(ba) {
			return false
		}
		return a.ContainsRegion(ab) && b.ContainsRegion(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Intersecting with itself is the identity; cell counts never grow.
	g := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := gen(r), gen(r)
		if !a.Intersect(a).Equal(a) {
			return false
		}
		return a.Intersect(b).Cells() <= a.Cells()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldIndexRoundTrip(t *testing.T) {
	f := NewField("x", Size{3, 4, 5})
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				idx := f.Index(i, j, k)
				if idx < 0 || idx >= len(f.Data) {
					t.Fatalf("index out of range: (%d,%d,%d) -> %d", i, j, k, idx)
				}
				if seen[idx] {
					t.Fatalf("duplicate index %d for (%d,%d,%d)", idx, i, j, k)
				}
				seen[idx] = true
			}
		}
	}
	if len(seen) != 60 {
		t.Fatalf("covered %d indices, want 60", len(seen))
	}
}

func TestFieldAtSetFill(t *testing.T) {
	f := NewField("x", Size{2, 3, 4})
	f.Set(1, 2, 3, 42)
	if f.At(1, 2, 3) != 42 {
		t.Fatal("Set/At mismatch")
	}
	f.Fill(7)
	for _, v := range f.Data {
		if v != 7 {
			t.Fatal("Fill incomplete")
		}
	}
	f.FillFunc(func(i, j, k int) float64 { return float64(i*100 + j*10 + k) })
	if f.At(1, 2, 3) != 123 {
		t.Fatalf("FillFunc: got %v, want 123", f.At(1, 2, 3))
	}
}

func TestFieldCloneIndependence(t *testing.T) {
	f := NewField("x", Size{2, 2, 2})
	f.Fill(1)
	c := f.Clone()
	c.Set(0, 0, 0, 99)
	if f.At(0, 0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if c.Name() != "x" {
		t.Fatal("Clone lost name")
	}
}

func TestFieldSumKahan(t *testing.T) {
	// A sum that loses precision with naive accumulation.
	f := NewField("x", Size{1, 1, 4})
	f.Data = []float64{1e16, 1, -1e16, 1}
	if got := f.Sum(); got != 2 {
		t.Fatalf("Kahan Sum = %v, want 2", got)
	}
}

func TestMinMaxDiff(t *testing.T) {
	a := NewField("a", Size{2, 2, 2})
	b := NewField("b", Size{2, 2, 2})
	a.FillFunc(func(i, j, k int) float64 { return float64(i - j + k) })
	b.CopyFrom(a)
	if MaxAbsDiff(a, b) != 0 {
		t.Fatal("identical fields must have zero diff")
	}
	b.Set(1, 1, 1, b.At(1, 1, 1)+0.5)
	if got := MaxAbsDiff(a, b); got != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, want 0.5", got)
	}
	if a.Min() != -1 || a.Max() != 2 {
		t.Fatalf("Min/Max = %v/%v, want -1/2", a.Min(), a.Max())
	}
	if got := L2Diff(a, b); math.Abs(got-math.Sqrt(0.25/8)) > 1e-15 {
		t.Fatalf("L2Diff = %v", got)
	}
}

func TestNewFieldPanicsOnInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid size")
		}
	}()
	NewField("bad", Size{0, 1, 1})
}

func TestPlacementSerialAllNodeZero(t *testing.T) {
	s := Size{16, 16, 16}
	p := NewPlacement(s, FirstTouchSerial, 4, nil)
	for pg := 0; pg < p.NumPages(); pg++ {
		if p.NodeOfPage(pg) != 0 {
			t.Fatalf("page %d on node %d, want 0", pg, p.NodeOfPage(pg))
		}
	}
	per := p.BytesPerNode(0, s.Cells())
	if per[0] != int64(s.Cells()*CellBytes) {
		t.Fatalf("node 0 bytes = %d, want %d", per[0], s.Cells()*CellBytes)
	}
	for n := 1; n < 4; n++ {
		if per[n] != 0 {
			t.Fatalf("node %d bytes = %d, want 0", n, per[n])
		}
	}
}

func TestPlacementInterleavedBalanced(t *testing.T) {
	s := Size{32, 16, 16} // 8192 cells = 16 pages
	p := NewPlacement(s, Interleaved, 4, nil)
	counts := make([]int, 4)
	for pg := 0; pg < p.NumPages(); pg++ {
		counts[p.NodeOfPage(pg)]++
	}
	for n, c := range counts {
		if c != p.NumPages()/4 {
			t.Fatalf("node %d has %d pages, want %d", n, c, p.NumPages()/4)
		}
	}
}

func TestPlacementParallelFollowsOwner(t *testing.T) {
	s := Size{64, 8, 8} // i-rows of 64 cells; 8 cells/page boundary-aligned rows
	nodes := 4
	owner := OwnerByIPartition(s, nodes)
	p := NewPlacement(s, FirstTouchParallel, nodes, owner)
	// Each quarter of the i range must be homed on its node.
	for i := 0; i < s.NI; i++ {
		cell := i * s.NJ * s.NK
		wantNode := i * nodes / s.NI
		if got := p.NodeOfCell(cell); got != wantNode {
			t.Fatalf("cell of row i=%d on node %d, want %d", i, got, wantNode)
		}
	}
}

func TestPlacementBytesPerNodeTotal(t *testing.T) {
	f := func(ni, nj, nk uint8, nodes uint8) bool {
		s := Size{int(ni%16) + 1, int(nj%16) + 1, int(nk%16) + 1}
		n := int(nodes%6) + 1
		p := NewPlacement(s, Interleaved, n, nil)
		per := p.BytesPerNode(0, s.Cells())
		var tot int64
		for _, b := range per {
			tot += b
		}
		return tot == int64(s.Cells()*CellBytes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionBytesPerNodeMatchesRegionSize(t *testing.T) {
	s := Size{16, 16, 16}
	p := NewPlacement(s, Interleaved, 3, nil)
	r := Region{2, 10, 3, 12, 1, 15}
	per := p.RegionBytesPerNode(r)
	var tot int64
	for _, b := range per {
		tot += b
	}
	if tot != int64(r.Cells()*CellBytes) {
		t.Fatalf("region bytes = %d, want %d", tot, r.Cells()*CellBytes)
	}
}

func TestOwnerByIPartitionCoversAllNodes(t *testing.T) {
	s := Size{14, 4, 4}
	owner := OwnerByIPartition(s, 14)
	for i := 0; i < 14; i++ {
		if got := owner(i * 16); got != i {
			t.Fatalf("row %d owned by %d, want %d", i, got, i)
		}
	}
}

func TestPlacementPolicyString(t *testing.T) {
	if FirstTouchSerial.String() != "first-touch-serial" ||
		FirstTouchParallel.String() != "first-touch-parallel" ||
		Interleaved.String() != "interleaved" {
		t.Fatal("policy String() mismatch")
	}
}

func TestBoxConstructor(t *testing.T) {
	b := Box(1, 2, 3, 4, 5, 6)
	if b != (Region{I0: 1, I1: 2, J0: 3, J1: 4, K0: 5, K1: 6}) {
		t.Fatalf("Box = %v", b)
	}
}

func TestStringers(t *testing.T) {
	if got := Sz(2, 3, 4).String(); got != "2x3x4" {
		t.Fatalf("Size.String = %q", got)
	}
	if got := Box(0, 1, 2, 3, 4, 5).String(); got != "[0,1)x[2,3)x[4,5)" {
		t.Fatalf("Region.String = %q", got)
	}
}

func TestCopyRegionDirect(t *testing.T) {
	src := NewField("src", Sz(4, 4, 4))
	src.FillFunc(func(i, j, k int) float64 { return float64(i*16 + j*4 + k) })
	dst := NewField("dst", Sz(4, 4, 4))
	r := Box(1, 3, 1, 3, 1, 3)
	CopyRegion(dst, src, r)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				want := 0.0
				if r.Contains(i, j, k) {
					want = src.At(i, j, k)
				}
				if dst.At(i, j, k) != want {
					t.Fatalf("cell (%d,%d,%d) = %v, want %v", i, j, k, dst.At(i, j, k), want)
				}
			}
		}
	}
	// Copying an empty region is a no-op; size mismatch panics.
	CopyRegion(dst, src, Box(2, 2, 0, 1, 0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected size-mismatch panic")
		}
	}()
	CopyRegion(NewField("small", Sz(2, 2, 2)), src, r)
}

// TestSwapData checks the O(1) buffer exchange used by the buffer-swap
// feedback path: contents trade places, other metadata stays put, and a size
// mismatch panics.
func TestSwapData(t *testing.T) {
	a := NewField("a", Sz(2, 3, 4))
	b := NewField("b", Sz(2, 3, 4))
	a.Fill(1)
	b.Fill(2)
	SwapData(a, b)
	if a.Data[0] != 2 || b.Data[0] != 1 {
		t.Fatalf("SwapData did not exchange buffers: a=%v b=%v", a.Data[0], b.Data[0])
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatal("SwapData must not exchange names")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected size-mismatch panic")
		}
	}()
	SwapData(a, NewField("c", Sz(1, 1, 1)))
}

// TestArena: fields of one layout are disjoint, a rewound arena hands the same
// storage out again (the next layout aliases the previous one and sees its
// contents), an exhausted arena spills to zeroed heap fields and counts them,
// and a nil arena is the heap.
func TestArena(t *testing.T) {
	small, big := Sz(2, 3, 4), Sz(3, 3, 4)
	a := NewArena(small.Cells() + big.Cells())
	f, g := a.NewField("f", small), a.NewField("g", big)
	f.Fill(1)
	g.Fill(2)
	if f.Sum() != float64(small.Cells()) || g.Sum() != 2*float64(big.Cells()) {
		t.Fatalf("fields of one layout overlap: sums %v, %v", f.Sum(), g.Sum())
	}
	if a.Cells() != small.Cells()+big.Cells() {
		t.Fatalf("Cells = %d before any spill", a.Cells())
	}
	spill := a.NewField("spill", small)
	if spill.Sum() != 0 || a.Cells() != 2*small.Cells()+big.Cells() {
		t.Fatalf("spilled field: sum %v, arena cells %d", spill.Sum(), a.Cells())
	}

	a.Rewind()
	h := a.NewField("h", big)
	if h.Name() != "h" || h.Size != big || h.At(0, 0, 0) != 1 || h.At(2, 2, 3) != 2 {
		t.Fatalf("rewound arena did not hand out the same storage: %v ... %v", h.At(0, 0, 0), h.At(2, 2, 3))
	}
	h.Fill(7)
	if f.At(1, 2, 3) != 7 {
		t.Fatal("fields made before and after Rewind do not alias")
	}

	var none *Arena
	if z := none.NewField("z", small); len(z.Data) != small.Cells() || z.Sum() != 0 {
		t.Fatal("nil arena did not allocate a zeroed heap field")
	}
}
