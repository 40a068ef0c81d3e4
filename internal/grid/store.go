package grid

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// This file is the on-disk half of the out-of-core tile streaming subsystem
// (internal/stream, docs/STREAMING.md): a chunked file format for one dense
// 3D field stored as a sequence of i-planes, with a pread/pwrite
// reader-writer and an optional mmap read path. The layout mirrors the
// in-memory i-major order, so a contiguous run of i-planes — the resident
// tile of a streamed job — is one contiguous file extent readable with a
// single positioned read.

// PlaneFile header layout (one 4096-byte page, so the plane data behind it
// stays page-aligned for mmap):
//
//	offset  size  field
//	0       8     magic "ISLPLNS1"
//	8       8     NI (little-endian uint64)
//	16      8     NJ
//	24      8     NK
//	32      8     chunk size in planes (currently always 1)
//	40..4096      zero padding
const (
	planeMagic      = "ISLPLNS1"
	planeHeaderSize = 4096
	// PlaneChunk is the transfer granularity of the format: one i-plane
	// (NJ*NK cells). Readers and writers address whole chunks.
	PlaneChunk = 1
)

// PlaneBytes returns the byte size of one i-plane of a field of size s.
func PlaneBytes(s Size) int64 { return int64(s.NJ) * int64(s.NK) * CellBytes }

// planeFileBytes returns the byte extent of a plane file holding a field of
// size s — header plus NI planes — and false when s is invalid or the extent
// overflows int64 (a corrupt header can claim any extents).
func planeFileBytes(s Size) (int64, bool) {
	if !s.Valid() {
		return 0, false
	}
	const limit = math.MaxInt64 - planeHeaderSize
	nj, nk, ni := int64(s.NJ), int64(s.NK), int64(s.NI)
	if nj > limit/CellBytes/nk || ni > limit/(nj*nk*CellBytes) {
		return 0, false
	}
	return planeHeaderSize + ni*nj*nk*CellBytes, true
}

// PlaneFile is one dense 3D float64 field stored on disk as NI chunked
// i-planes behind a fixed header. Reads go through pread (or mmap when
// EnableMmap succeeded); writes go through pwrite. A PlaneFile is safe for
// one concurrent reader plus one concurrent writer on disjoint planes — the
// double-buffered prefetch of the streaming executor — but not for
// concurrent writers to the same plane.
type PlaneFile struct {
	f    *os.File
	size Size
	// mm is the mmap'd whole file when the mmap read path is enabled
	// (nil = pread). Writes still go through pwrite; on Linux the page
	// cache keeps the mapping coherent with positioned writes.
	mm []byte
}

// CreatePlaneFile creates (or truncates) a plane file for a field of the
// given size, preallocating the full extent so later positioned writes
// cannot fail with a short file.
func CreatePlaneFile(path string, s Size) (*PlaneFile, error) {
	extent, ok := planeFileBytes(s)
	if !ok {
		return nil, fmt.Errorf("grid: invalid plane file size %v", s)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, planeHeaderSize)
	copy(hdr, planeMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.NI))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.NJ))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.NK))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(PlaneChunk))
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Truncate(extent); err != nil {
		f.Close()
		return nil, err
	}
	return &PlaneFile{f: f, size: s}, nil
}

// OpenPlaneFile opens an existing plane file, validating its header.
func OpenPlaneFile(path string) (*PlaneFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, planeHeaderSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, planeHeaderSize), hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("grid: %s: short header: %w", path, err)
	}
	if string(hdr[:len(planeMagic)]) != planeMagic {
		f.Close()
		return nil, fmt.Errorf("grid: %s is not a plane file (bad magic)", path)
	}
	s := Size{
		NI: int(binary.LittleEndian.Uint64(hdr[8:])),
		NJ: int(binary.LittleEndian.Uint64(hdr[16:])),
		NK: int(binary.LittleEndian.Uint64(hdr[24:])),
	}
	want, ok := planeFileBytes(s)
	if !ok {
		f.Close()
		return nil, fmt.Errorf("grid: %s has invalid size %v", path, s)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < want {
		f.Close()
		return nil, fmt.Errorf("grid: %s is truncated: %d bytes, want %d", path, st.Size(), want)
	}
	return &PlaneFile{f: f, size: s}, nil
}

// Size returns the stored field's extents.
func (p *PlaneFile) Size() Size { return p.size }

// planeOffset returns the file offset of plane i.
func (p *PlaneFile) planeOffset(i int) int64 {
	return planeHeaderSize + int64(i)*PlaneBytes(p.size)
}

// checkRange validates a plane range [lo, lo+n).
func (p *PlaneFile) checkRange(lo, n int) error {
	if lo < 0 || n < 0 || lo+n > p.size.NI {
		return fmt.Errorf("grid: plane range [%d,%d) outside [0,%d)", lo, lo+n, p.size.NI)
	}
	return nil
}

// ReadPlanes reads n consecutive i-planes starting at plane lo into dst,
// which must hold at least n plane's worth of cells. One positioned read
// (or a copy out of the mmap window when enabled).
func (p *PlaneFile) ReadPlanes(dst []float64, lo, n int) error {
	if err := p.checkRange(lo, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	cells := n * int(PlaneBytes(p.size)/CellBytes)
	if len(dst) < cells {
		return fmt.Errorf("grid: ReadPlanes dst holds %d cells, need %d", len(dst), cells)
	}
	buf := float64Bytes(dst[:cells])
	if p.mm != nil {
		off := p.planeOffset(lo)
		copy(buf, p.mm[off:off+int64(len(buf))])
		return nil
	}
	_, err := p.f.ReadAt(buf, p.planeOffset(lo))
	return err
}

// ReadPlanesWrap reads n planes starting at (possibly out-of-range) plane lo,
// wrapping indices periodically into [0, NI) — the halo load of a streamed
// tile under a periodic boundary. Contiguous in-range runs are read with
// single positioned reads.
func (p *PlaneFile) ReadPlanesWrap(dst []float64, lo, n int) error {
	planeCells := int(PlaneBytes(p.size) / CellBytes)
	if len(dst) < n*planeCells {
		return fmt.Errorf("grid: ReadPlanesWrap dst holds %d cells, need %d", len(dst), n*planeCells)
	}
	for done := 0; done < n; {
		src := WrapIndex(lo+done, p.size.NI)
		run := min(n-done, p.size.NI-src)
		if err := p.ReadPlanes(dst[done*planeCells:], src, run); err != nil {
			return err
		}
		done += run
	}
	return nil
}

// WrapIndex wraps idx periodically into [0, n) — the index arithmetic of a
// periodic boundary, shared by the plane store and the tile planner.
func WrapIndex(idx, n int) int {
	idx %= n
	if idx < 0 {
		idx += n
	}
	return idx
}

// WritePlanes writes n consecutive i-planes starting at plane lo from src.
// One positioned write.
func (p *PlaneFile) WritePlanes(src []float64, lo, n int) error {
	if err := p.checkRange(lo, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	cells := n * int(PlaneBytes(p.size)/CellBytes)
	if len(src) < cells {
		return fmt.Errorf("grid: WritePlanes src holds %d cells, need %d", len(src), cells)
	}
	_, err := p.f.WriteAt(float64Bytes(src[:cells]), p.planeOffset(lo))
	return err
}

// Sync flushes written planes to stable storage.
func (p *PlaneFile) Sync() error { return p.f.Sync() }

// EnableMmap switches reads to a read-only memory mapping of the whole file
// where the platform supports it (pwrite stays the write path; the unified
// page cache keeps the mapping coherent). Returns false without error when
// mmap is unsupported — the pread path keeps working.
func (p *PlaneFile) EnableMmap() (bool, error) {
	if p.mm != nil {
		return true, nil
	}
	extent, _ := planeFileBytes(p.size) // validated when the file was created or opened
	mm, err := mmapFile(p.f, extent)
	if err != nil || mm == nil {
		return false, err
	}
	p.mm = mm
	return true, nil
}

// Close unmaps and closes the file.
func (p *PlaneFile) Close() error {
	if p.mm != nil {
		munmapFile(p.mm)
		p.mm = nil
	}
	return p.f.Close()
}

// WriteFileAtomic writes data to path through a same-directory temp file and
// an atomic rename, so readers never observe a partial file. With a non-nil
// sync it also has the crash-safety contract of the streamed checkpoint:
// sync makes the temp file durable before the rename and the directory after
// it, so a crash at any point leaves either the old content or the new one
// (plus at worst one *.tmp partial, which the store's partial sweep removes).
// A nil sync skips both, for files nothing reopens after a crash. A failed
// directory sync is reported although the rename has succeeded: the new
// content is in place but may not survive a crash, and a caller that goes on
// as if it would can later overwrite what the old content still needs.
func WriteFileAtomic(path string, data []byte, sync func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if sync != nil {
		if err := sync(tmp); err != nil {
			cleanup()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	if sync == nil {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return sync(d)
}

// RemovePartials deletes every *.tmp leftover under dir (non-recursive) — a
// dirty exit mid-WriteFileAtomic or a killed plane-file writer can orphan
// one. It reports how many were removed.
func RemovePartials(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, m := range matches {
		if os.Remove(m) == nil {
			n++
		}
	}
	return n, nil
}
