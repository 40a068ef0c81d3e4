package grid

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestPlaneFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := Sz(7, 5, 3)
	pf, err := CreatePlaneFile(filepath.Join(dir, "psi.planes"), s)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	f := NewField("psi", s)
	for n := range f.Data {
		f.Data[n] = rng.NormFloat64()
	}
	planeCells := int(PlaneBytes(s) / CellBytes)
	// Write in uneven runs to exercise offsets.
	for _, run := range [][2]int{{0, 3}, {3, 1}, {4, 3}} {
		lo, n := run[0], run[1]
		if err := pf.WritePlanes(f.Data[lo*planeCells:], lo, n); err != nil {
			t.Fatal(err)
		}
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	pf, err = OpenPlaneFile(filepath.Join(dir, "psi.planes"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.Size() != s {
		t.Fatalf("reopened size %v, want %v", pf.Size(), s)
	}
	got := make([]float64, s.Cells())
	if err := pf.ReadPlanes(got, 0, s.NI); err != nil {
		t.Fatal(err)
	}
	for n := range got {
		if got[n] != f.Data[n] {
			t.Fatalf("cell %d: got %v, want %v", n, got[n], f.Data[n])
		}
	}

	// Partial read with an offset.
	part := make([]float64, 2*planeCells)
	if err := pf.ReadPlanes(part, 4, 2); err != nil {
		t.Fatal(err)
	}
	for n := range part {
		if part[n] != f.Data[4*planeCells+n] {
			t.Fatalf("offset read cell %d mismatch", n)
		}
	}
}

func TestPlaneFileMmapMatchesPread(t *testing.T) {
	dir := t.TempDir()
	s := Sz(6, 4, 4)
	pf, err := CreatePlaneFile(filepath.Join(dir, "m.planes"), s)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, s.Cells())
	for n := range data {
		data[n] = rng.Float64()
	}
	if err := pf.WritePlanes(data, 0, s.NI); err != nil {
		t.Fatal(err)
	}
	ok, err := pf.EnableMmap()
	if err != nil {
		t.Fatalf("EnableMmap: %v", err)
	}
	if !ok {
		t.Skip("mmap unsupported on this platform")
	}
	got := make([]float64, s.Cells())
	if err := pf.ReadPlanes(got, 0, s.NI); err != nil {
		t.Fatal(err)
	}
	for n := range got {
		if got[n] != data[n] {
			t.Fatalf("mmap cell %d: got %v, want %v", n, got[n], data[n])
		}
	}
	// pwrite after mapping must be visible through the mapping (page-cache
	// coherence is what lets the writeback goroutine share the file).
	planeCells := int(PlaneBytes(s) / CellBytes)
	patch := make([]float64, planeCells)
	for n := range patch {
		patch[n] = -float64(n)
	}
	if err := pf.WritePlanes(patch, 3, 1); err != nil {
		t.Fatal(err)
	}
	one := make([]float64, planeCells)
	if err := pf.ReadPlanes(one, 3, 1); err != nil {
		t.Fatal(err)
	}
	for n := range one {
		if one[n] != patch[n] {
			t.Fatalf("post-write mmap read cell %d: got %v, want %v", n, one[n], patch[n])
		}
	}
}

func TestPlaneFileReadPlanesWrap(t *testing.T) {
	dir := t.TempDir()
	s := Sz(5, 2, 2)
	pf, err := CreatePlaneFile(filepath.Join(dir, "w.planes"), s)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	planeCells := int(PlaneBytes(s) / CellBytes)
	data := make([]float64, s.Cells())
	for i := 0; i < s.NI; i++ {
		for c := 0; c < planeCells; c++ {
			data[i*planeCells+c] = float64(i)
		}
	}
	if err := pf.WritePlanes(data, 0, s.NI); err != nil {
		t.Fatal(err)
	}
	// Read [-2, 7): wraps to planes 3,4,0,1,2,3,4,0,1.
	got := make([]float64, 9*planeCells)
	if err := pf.ReadPlanesWrap(got, -2, 9); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 4, 0, 1, 2, 3, 4, 0, 1}
	for p, w := range want {
		if got[p*planeCells] != float64(w) {
			t.Fatalf("wrapped plane %d: got %v, want %d", p, got[p*planeCells], w)
		}
	}
}

func TestPlaneFileRangeErrors(t *testing.T) {
	dir := t.TempDir()
	s := Sz(3, 2, 2)
	pf, err := CreatePlaneFile(filepath.Join(dir, "e.planes"), s)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	buf := make([]float64, s.Cells())
	if err := pf.ReadPlanes(buf, -1, 1); err == nil {
		t.Fatal("negative lo accepted")
	}
	if err := pf.ReadPlanes(buf, 2, 2); err == nil {
		t.Fatal("overflowing range accepted")
	}
	if err := pf.ReadPlanes(buf[:1], 0, 3); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := pf.WritePlanes(buf[:1], 0, 3); err == nil {
		t.Fatal("short src accepted")
	}
}

func TestOpenPlaneFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.planes")
	if err := os.WriteFile(bad, []byte("not a plane file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPlaneFile(bad); err == nil {
		t.Fatal("garbage file accepted")
	}
	// Truncated: valid header but missing data.
	s := Sz(4, 4, 4)
	tr := filepath.Join(dir, "trunc.planes")
	pf, err := CreatePlaneFile(tr, s)
	if err != nil {
		t.Fatal(err)
	}
	pf.Close()
	if err := os.Truncate(tr, planeHeaderSize+PlaneBytes(s)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPlaneFile(tr); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := WriteFileAtomic(path, []byte("v1"), (*os.File).Sync); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2"), nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q, want v2", got)
	}
	// No temp files survive a successful write.
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("leftover temp files: %v", left)
	}
}

func TestRemovePartials(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.tmp", "b.json.12345.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "keep.json"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := RemovePartials(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if _, err := os.Stat(filepath.Join(dir, "keep.json")); err != nil {
		t.Fatalf("keep.json removed: %v", err)
	}
}
