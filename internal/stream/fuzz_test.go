package stream

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// FuzzResumeCheckpoint writes arbitrary bytes over the checkpoint of an
// otherwise valid store, one sweep of three in, and resumes it. Either New
// fails cleanly — no goroutine, descriptor, mapping or partial file left
// behind — or the resumed run ends on checksums bit-identical to an
// uninterrupted run's. The store's own checkpoint is the first seed; the
// committed ones under testdata/fuzz are it truncated, at sweep = Sweeps,
// with a negative tile and with tile_planes 0.
func FuzzResumeCheckpoint(f *testing.F) {
	machine, err := topology.UV2000(2)
	if err != nil {
		f.Fatal(err)
	}
	cfg := exec.Config{Machine: machine, Strategy: exec.Plus31D, Boundary: stencil.Periodic, Steps: 6, KSteps: 2}
	options := func(dir string) Options {
		return Options{Dir: dir, Exec: cfg, Domain: grid.Sz(16, 6, 4), TilePlanes: 4, Resume: true}
	}
	whole, err := New(options(f.TempDir()))
	if err != nil {
		f.Fatal(err)
	}
	if err := whole.Run(); err != nil {
		f.Fatal(err)
	}
	want, err := whole.Checksums()
	if err != nil {
		f.Fatal(err)
	}
	whole.Close()

	store := f.TempDir()
	s, err := New(options(store))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunSweep(); err != nil {
		f.Fatal(err)
	}
	s.Close()
	planes := map[string][]byte{}
	for _, name := range []string{psiFile0, psiFile1} {
		if planes[name], err = os.ReadFile(filepath.Join(store, name)); err != nil {
			f.Fatal(err)
		}
	}
	own, err := os.ReadFile(filepath.Join(store, checkpointFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)

	f.Fuzz(func(t *testing.T, ck []byte) {
		dir := t.TempDir()
		for name, raw := range planes {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, checkpointFile), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		baseGoroutines := runtime.NumGoroutine()
		s, err := New(options(dir))
		if err != nil {
			requireNothingLeft(t, dir, baseGoroutines)
			return
		}
		defer s.Close()
		if err := s.Run(); err != nil {
			t.Fatalf("resumed from %q: %v", ck, err)
		}
		got, err := s.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range [][2]float64{{got.Sum, want.Sum}, {got.Min, want.Min}, {got.Max, want.Max}, {got.MassIn, want.MassIn}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Fatalf("resumed from %q: checksums %+v, uninterrupted %+v", ck, got, want)
			}
		}
	})
}
