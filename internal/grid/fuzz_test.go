package grid

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadField hardens the field-file parser: arbitrary input must never
// panic, and every accepted input must round-trip through WriteField.
func FuzzReadField(f *testing.F) {
	// Seeds: a valid file, a truncated one, corrupted magic/extents.
	valid := func() []byte {
		fld := NewField("seed", Sz(3, 2, 2))
		fld.FillFunc(func(i, j, k int) float64 { return float64(i + j + k) })
		var buf bytes.Buffer
		if err := WriteField(&buf, fld); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("ISLF\x00\x00\x00\x01garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fld, err := ReadField(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted: must round-trip bit-exactly.
		var buf bytes.Buffer
		if err := WriteField(&buf, fld); err != nil {
			t.Fatalf("rewrite failed: %v", err)
		}
		back, err := ReadField(&buf)
		if err != nil {
			t.Fatalf("reread failed: %v", err)
		}
		if back.Size != fld.Size || back.Name() != fld.Name() {
			t.Fatal("round trip changed metadata")
		}
	})
}

// FuzzOpenPlaneFile hardens the plane-file header check: a header with
// arbitrary extents over a file of arbitrary length either errors or yields a
// size whose whole extent — header plus NI planes, computed without overflow
// — fits in the file. The committed corpus holds the 1x2^31x2^31 header whose
// int64 extent wraps to the header size.
func FuzzOpenPlaneFile(f *testing.F) {
	f.Add(uint64(3), uint64(2), uint64(2), uint32(planeHeaderSize+3*2*2*CellBytes))
	f.Add(uint64(3), uint64(2), uint64(2), uint32(planeHeaderSize+3*2*2*CellBytes-1))
	f.Add(uint64(0), uint64(1), uint64(1), uint32(planeHeaderSize))
	f.Add(uint64(1)<<63, uint64(1), uint64(1), uint32(planeHeaderSize))

	f.Fuzz(func(t *testing.T, ni, nj, nk uint64, fileBytes uint32) {
		hdr := make([]byte, planeHeaderSize)
		copy(hdr, planeMagic)
		binary.LittleEndian.PutUint64(hdr[8:], ni)
		binary.LittleEndian.PutUint64(hdr[16:], nj)
		binary.LittleEndian.PutUint64(hdr[24:], nk)
		binary.LittleEndian.PutUint64(hdr[32:], PlaneChunk)
		path := filepath.Join(t.TempDir(), "fuzz.planes")
		if err := os.WriteFile(path, hdr, 0o644); err != nil {
			t.Fatal(err)
		}
		// Sparse beyond the header: a large length costs no disk.
		if err := os.Truncate(path, int64(fileBytes)); err != nil {
			t.Fatal(err)
		}
		pf, err := OpenPlaneFile(path)
		if err != nil {
			return
		}
		defer pf.Close()
		s := pf.Size()
		extent := big.NewInt(int64(s.NI))
		extent.Mul(extent, big.NewInt(int64(s.NJ)))
		extent.Mul(extent, big.NewInt(int64(s.NK)))
		extent.Mul(extent, big.NewInt(CellBytes))
		extent.Add(extent, big.NewInt(planeHeaderSize))
		if !s.Valid() || extent.Cmp(big.NewInt(int64(fileBytes))) > 0 {
			t.Fatalf("accepted header %dx%dx%d over a %d-byte file: size %v needs %v bytes", ni, nj, nk, fileBytes, s, extent)
		}
	})
}
