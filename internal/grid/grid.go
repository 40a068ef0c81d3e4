// Package grid provides dense 3D fields, sub-grid regions, and NUMA page
// placement bookkeeping for heterogeneous stencil computations.
//
// Fields are stored flat in i-major order (index = (i*NJ + j)*NK + k), which
// mirrors the MPDATA data layout from the paper: contiguous memory runs along
// the k dimension, and 1D domain partitioning is only cheap along i and j.
package grid

import (
	"fmt"
	"math"
)

// Size describes the extents of a 3D grid.
type Size struct {
	NI, NJ, NK int
}

// Sz is shorthand for constructing a Size.
func Sz(ni, nj, nk int) Size { return Size{NI: ni, NJ: nj, NK: nk} }

// Box is shorthand for constructing a Region.
func Box(i0, i1, j0, j1, k0, k1 int) Region {
	return Region{I0: i0, I1: i1, J0: j0, J1: j1, K0: k0, K1: k1}
}

// Cells returns the total number of grid cells.
func (s Size) Cells() int { return s.NI * s.NJ * s.NK }

// Valid reports whether all extents are positive.
func (s Size) Valid() bool { return s.NI > 0 && s.NJ > 0 && s.NK > 0 }

func (s Size) String() string { return fmt.Sprintf("%dx%dx%d", s.NI, s.NJ, s.NK) }

// Region is a half-open box [I0,I1) x [J0,J1) x [K0,K1) within a grid.
type Region struct {
	I0, I1 int
	J0, J1 int
	K0, K1 int
}

// WholeRegion returns the region covering an entire grid of size s.
func WholeRegion(s Size) Region {
	return Region{0, s.NI, 0, s.NJ, 0, s.NK}
}

// Cells returns the number of cells in the region (0 if empty).
func (r Region) Cells() int {
	if r.Empty() {
		return 0
	}
	return (r.I1 - r.I0) * (r.J1 - r.J0) * (r.K1 - r.K0)
}

// Empty reports whether the region contains no cells.
func (r Region) Empty() bool {
	return r.I1 <= r.I0 || r.J1 <= r.J0 || r.K1 <= r.K0
}

// Contains reports whether the cell (i,j,k) lies inside the region.
func (r Region) Contains(i, j, k int) bool {
	return i >= r.I0 && i < r.I1 && j >= r.J0 && j < r.J1 && k >= r.K0 && k < r.K1
}

// ContainsRegion reports whether o lies entirely within r.
// An empty o is contained in any region.
func (r Region) ContainsRegion(o Region) bool {
	if o.Empty() {
		return true
	}
	return o.I0 >= r.I0 && o.I1 <= r.I1 &&
		o.J0 >= r.J0 && o.J1 <= r.J1 &&
		o.K0 >= r.K0 && o.K1 <= r.K1
}

// Intersect returns the overlap of two regions (possibly empty).
func (r Region) Intersect(o Region) Region {
	out := Region{
		I0: max(r.I0, o.I0), I1: min(r.I1, o.I1),
		J0: max(r.J0, o.J0), J1: min(r.J1, o.J1),
		K0: max(r.K0, o.K0), K1: min(r.K1, o.K1),
	}
	if out.Empty() {
		return Region{}
	}
	return out
}

// Clamp restricts r to the bounds of a grid of size s.
func (r Region) Clamp(s Size) Region {
	return r.Intersect(WholeRegion(s))
}

// Grow expands the region by the given non-negative amounts on each face.
func (r Region) Grow(iLo, iHi, jLo, jHi, kLo, kHi int) Region {
	return Region{
		I0: r.I0 - iLo, I1: r.I1 + iHi,
		J0: r.J0 - jLo, J1: r.J1 + jHi,
		K0: r.K0 - kLo, K1: r.K1 + kHi,
	}
}

// Equal reports whether two regions describe the same box. All empty regions
// compare equal.
func (r Region) Equal(o Region) bool {
	if r.Empty() && o.Empty() {
		return true
	}
	return r == o
}

func (r Region) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", r.I0, r.I1, r.J0, r.J1, r.K0, r.K1)
}

// Field is a dense 3D array of float64 in i-major order.
type Field struct {
	Size Size
	Data []float64
	name string
}

// NewField allocates a zero-filled field of the given size.
func NewField(name string, s Size) *Field {
	if !s.Valid() {
		panic(fmt.Sprintf("grid: invalid field size %v", s))
	}
	return &Field{Size: s, Data: make([]float64, s.Cells()), name: name}
}

// Arena hands out field storage from one backing array, so that several sets
// of fields of which only one is in use at a time — the out-of-core tile
// engines of one streamed run, one per tile shape — occupy the memory of the
// largest set. A nil Arena allocates every field on the heap.
type Arena struct {
	buf     []float64
	off     int
	spilled int
}

// NewArena allocates an arena of the given capacity in cells.
func NewArena(cells int) *Arena { return &Arena{buf: make([]float64, cells)} }

// Rewind makes the arena hand its storage out from the start again. Fields
// made afterwards alias those made before, and start with their contents.
func (a *Arena) Rewind() { a.off = 0 }

// NewField returns a field of the given size backed by the arena — with
// unspecified contents once the arena has been rewound — or, once the arena is
// exhausted, a zero-filled one from the heap, counted in Cells.
func (a *Arena) NewField(name string, s Size) *Field {
	if a == nil {
		return NewField(name, s)
	}
	if !s.Valid() {
		panic(fmt.Sprintf("grid: invalid field size %v", s))
	}
	n := s.Cells()
	if a.off+n > len(a.buf) {
		a.spilled += n
		return NewField(name, s)
	}
	f := &Field{Size: s, Data: a.buf[a.off : a.off+n : a.off+n], name: name}
	a.off += n
	return f
}

// Cells returns the storage the arena's fields have occupied: its capacity
// plus whatever spilled to the heap.
func (a *Arena) Cells() int { return len(a.buf) + a.spilled }

// Name returns the field's diagnostic name.
func (f *Field) Name() string { return f.name }

// Index returns the flat index of cell (i,j,k).
func (f *Field) Index(i, j, k int) int {
	return (i*f.Size.NJ+j)*f.Size.NK + k
}

// At returns the value at (i,j,k).
func (f *Field) At(i, j, k int) float64 { return f.Data[f.Index(i, j, k)] }

// Set stores v at (i,j,k).
func (f *Field) Set(i, j, k int, v float64) { f.Data[f.Index(i, j, k)] = v }

// Fill sets every cell to v.
func (f *Field) Fill(v float64) {
	for n := range f.Data {
		f.Data[n] = v
	}
}

// FillFunc sets every cell to fn(i,j,k).
func (f *Field) FillFunc(fn func(i, j, k int) float64) {
	n := 0
	for i := 0; i < f.Size.NI; i++ {
		for j := 0; j < f.Size.NJ; j++ {
			for k := 0; k < f.Size.NK; k++ {
				f.Data[n] = fn(i, j, k)
				n++
			}
		}
	}
}

// Clone returns a deep copy of the field.
func (f *Field) Clone() *Field {
	c := NewField(f.name, f.Size)
	copy(c.Data, f.Data)
	return c
}

// CopyFrom copies src into f. The sizes must match.
func (f *Field) CopyFrom(src *Field) {
	if f.Size != src.Size {
		panic(fmt.Sprintf("grid: size mismatch %v vs %v", f.Size, src.Size))
	}
	copy(f.Data, src.Data)
}

// SumAccumulator is a Neumaier compensated summation in progress. It exists
// as a standalone type so an out-of-core scan over a stored field (one plane
// at a time) runs the exact same sequence of floating-point operations as
// Field.Sum over the resident field — the streamed checksum is bit-identical
// to the resident one, not merely close.
type SumAccumulator struct {
	sum, comp float64
}

// Add folds one value into the accumulator.
func (a *SumAccumulator) Add(v float64) {
	t := a.sum + v
	if abs(a.sum) >= abs(v) {
		a.comp += (a.sum - t) + v
	} else {
		a.comp += (v - t) + a.sum
	}
	a.sum = t
}

// Value returns the compensated total so far.
func (a *SumAccumulator) Value() float64 { return a.sum + a.comp }

// Sum returns the sum of all cells (used for conservation checks).
// It uses Neumaier compensated summation: conservation tests need tight
// tolerances even when large terms cancel.
func (f *Field) Sum() float64 {
	var acc SumAccumulator
	for _, v := range f.Data {
		acc.Add(v)
	}
	return acc.Value()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Min returns the minimum cell value.
func (f *Field) Min() float64 {
	m := math.Inf(1)
	for _, v := range f.Data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum cell value.
func (f *Field) Max() float64 {
	m := math.Inf(-1)
	for _, v := range f.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// SwapData exchanges the backing storage of two fields of identical size.
// Holders of either *Field observe the other's contents afterwards — the
// double-buffer feedback of the compiled executor uses this to publish a
// step's output into the feedback input in O(1) instead of a full-grid copy.
func SwapData(a, b *Field) {
	if a.Size != b.Size {
		panic(fmt.Sprintf("grid: size mismatch %v vs %v", a.Size, b.Size))
	}
	a.Data, b.Data = b.Data, a.Data
}

// CopyRegion copies the cells of region r from src into dst. Both fields
// must have identical sizes.
func CopyRegion(dst, src *Field, r Region) {
	if dst.Size != src.Size {
		panic(fmt.Sprintf("grid: size mismatch %v vs %v", dst.Size, src.Size))
	}
	r = r.Clamp(dst.Size)
	if r.Empty() {
		return
	}
	nk := dst.Size.NK
	for i := r.I0; i < r.I1; i++ {
		for j := r.J0; j < r.J1; j++ {
			base := (i*dst.Size.NJ + j) * nk
			copy(dst.Data[base+r.K0:base+r.K1], src.Data[base+r.K0:base+r.K1])
		}
	}
}

// MaxAbsDiff returns the largest absolute difference between two fields of
// identical size.
func MaxAbsDiff(a, b *Field) float64 {
	if a.Size != b.Size {
		panic(fmt.Sprintf("grid: size mismatch %v vs %v", a.Size, b.Size))
	}
	var m float64
	for n := range a.Data {
		d := math.Abs(a.Data[n] - b.Data[n])
		if d > m {
			m = d
		}
	}
	return m
}

// L2Diff returns the root-mean-square difference between two fields.
func L2Diff(a, b *Field) float64 {
	if a.Size != b.Size {
		panic(fmt.Sprintf("grid: size mismatch %v vs %v", a.Size, b.Size))
	}
	var sum float64
	for n := range a.Data {
		d := a.Data[n] - b.Data[n]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a.Data)))
}
