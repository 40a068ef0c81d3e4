package stream

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
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
//
// An input must cost well under a millisecond: the fuzzer minimizes every
// input that widens coverage by running thousands of shrunk copies of it,
// and none of those count as execs. So the program is built once, and each
// process keeps one store whose planes are rewritten only after a resumed
// run changed them.
func FuzzResumeCheckpoint(f *testing.F) {
	machine, err := topology.UV2000(2)
	if err != nil {
		f.Fatal(err)
	}
	entry, err := solver.Lookup("")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := entry.NewProgram(solver.Options{IORD: mpdata.DefaultOptions().IORD})
	if err != nil {
		f.Fatal(err)
	}
	cfg := exec.Config{Machine: machine, Strategy: exec.Plus31D, Boundary: stencil.Periodic, Steps: 6, KSteps: 2}
	options := func(dir string) Options {
		return Options{Dir: dir, Exec: cfg, Domain: grid.Sz(16, 6, 4), TilePlanes: 4, Resume: true, Program: prog}
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
	for _, name := range psiFiles {
		if planes[name], err = os.ReadFile(filepath.Join(store, name)); err != nil {
			f.Fatal(err)
		}
	}
	own, err := os.ReadFile(filepath.Join(store, checkpointFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(own)

	dir := f.TempDir()
	writePlanes := func(tb testing.TB) {
		for name, raw := range planes {
			if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
				tb.Fatal(err)
			}
		}
	}
	writePlanes(f)

	f.Fuzz(func(t *testing.T, ck []byte) {
		if err := os.WriteFile(filepath.Join(dir, checkpointFile), ck, 0o644); err != nil {
			t.Fatal(err)
		}
		baseGoroutines := runtime.NumGoroutine()
		s, err := New(options(dir))
		if err != nil {
			requireNothingLeft(t, dir, baseGoroutines)
			return
		}
		defer writePlanes(t) // the resumed run rewrote them
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
