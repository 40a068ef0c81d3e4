package grid

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestFieldRoundTrip(t *testing.T) {
	f := NewField("psi", Sz(6, 5, 4))
	f.FillFunc(func(i, j, k int) float64 { return float64(i)*1.5 - float64(j)*0.25 + float64(k) })
	f.Set(0, 0, 0, math.Inf(1))
	f.Set(1, 1, 1, -0.0)

	var buf bytes.Buffer
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadField(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "psi" || got.Size != f.Size {
		t.Fatalf("metadata mismatch: %q %v", got.Name(), got.Size)
	}
	for i := range f.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(f.Data[i]) {
			t.Fatalf("cell %d: %v != %v (bit-exactness required)", i, got.Data[i], f.Data[i])
		}
	}
}

func TestFieldFileRoundTrip(t *testing.T) {
	f := NewField("checkpoint", Sz(4, 4, 4))
	f.FillFunc(func(i, j, k int) float64 { return float64(i*16 + j*4 + k) })
	path := filepath.Join(t.TempDir(), "field.islf")
	if err := SaveField(path, f); err != nil {
		t.Fatal(err)
	}
	got, err := LoadField(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(f, got); d != 0 {
		t.Fatalf("file round trip diff %v", d)
	}
}

func TestReadFieldRejectsBadMagic(t *testing.T) {
	_, err := ReadField(strings.NewReader("not a field file at all........."))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v, want bad-magic", err)
	}
}

func TestReadFieldRejectsTruncation(t *testing.T) {
	f := NewField("x", Sz(4, 4, 4))
	var buf bytes.Buffer
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{4, 12, 40, len(full) - 3} {
		if _, err := ReadField(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestReadFieldRejectsBadHeader(t *testing.T) {
	f := NewField("x", Sz(2, 2, 2))
	var buf bytes.Buffer
	if err := WriteField(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt NI to a negative value.
	copy(data[8:16], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if _, err := ReadField(bytes.NewReader(data)); err == nil {
		t.Fatal("negative extent not rejected")
	}
}

func TestLoadFieldMissingFile(t *testing.T) {
	if _, err := LoadField(filepath.Join(t.TempDir(), "missing.islf")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
