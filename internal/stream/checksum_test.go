package stream

import (
	"math"
	"strings"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// requireSameChecksums fails unless a and b agree bit for bit.
func requireSameChecksums(t *testing.T, what string, a, b Checksums) {
	t.Helper()
	for _, v := range [][2]float64{{a.Sum, b.Sum}, {a.Min, b.Min}, {a.Max, b.Max}, {a.MassIn, b.MassIn}} {
		if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
			t.Fatalf("%s: %+v, want %+v bit for bit", what, a, b)
		}
	}
}

// TestFoldedChecksumsMatchTheScan runs stores whose last sweep runs whole —
// clamp and periodic boundaries, several tiles and one, and a named store
// resumed before its last sweep — and requires the checksums the last
// sweep's writer folded to equal a scan of the store bit for bit. A store
// resumed inside its last sweep has no fold and falls back to the scan.
func TestFoldedChecksumsMatchTheScan(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(20, 6, 4)
	config := func(bc stencil.Boundary) exec.Config {
		return exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: bc, Steps: 6, KSteps: 2}
	}
	folded := func(t *testing.T, s *Streamer) Checksums {
		t.Helper()
		if s.final == nil {
			t.Fatal("the last sweep ran whole but folded no checksums")
		}
		got, err := s.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.scan()
		if err != nil {
			t.Fatal(err)
		}
		requireSameChecksums(t, "folded checksums", got, want)
		return got
	}
	for _, c := range []struct {
		name       string
		bc         stencil.Boundary
		tilePlanes int
	}{
		{"clamp", stencil.Clamp, 5},
		{"periodic", stencil.Periodic, 5},
		{"single-tile", stencil.Clamp, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Options{Dir: t.TempDir(), Exec: config(c.bc), Domain: domain, TilePlanes: c.tilePlanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			folded(t, s)
		})
	}

	t.Run("resumed-named", func(t *testing.T) {
		open := func(dir string, progress func(Progress)) *Streamer {
			s, err := New(Options{Dir: dir, Exec: config(stencil.Periodic), Domain: domain, TilePlanes: 5, Resume: true, Progress: progress})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		// Resumed before the last sweep: that sweep runs whole and folds.
		dir := t.TempDir()
		s := open(dir, nil)
		if err := s.RunSweep(); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s = open(dir, nil)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		want := folded(t, s)
		s.Close()

		// Resumed inside the last sweep: no fold, the scan answers.
		dir = t.TempDir()
		var killed *Streamer
		killed = open(dir, func(p Progress) {
			if p.Sweep == p.Sweeps-1 && p.Tile == 0 {
				killed.Abort("test kill")
			}
		})
		if err := killed.Run(); err == nil || !strings.Contains(err.Error(), "test kill") {
			t.Fatalf("expected the abort, got %v", err)
		}
		killed.Close()
		s = open(dir, nil)
		defer s.Close()
		if s.ck.Sweep != s.plan.Sweeps-1 || s.ck.Tile == 0 {
			t.Fatalf("resumed at sweep %d tile %d, want inside the last sweep", s.ck.Sweep, s.ck.Tile)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if s.final != nil {
			t.Fatal("a sweep resumed mid-way folded checksums it did not write whole")
		}
		got, err := s.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		requireSameChecksums(t, "scanned checksums after a mid-sweep resume", got, want)
	})
}
