package stream

import (
	"runtime"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// requireIdentical fails unless the streamed result equals the resident one
// bit for bit.
func requireIdentical(t *testing.T, s *Streamer, want *grid.Field) {
	t.Helper()
	got, err := s.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("cell %d differs: streamed %v, resident %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestStreamedTilesComputeTheirTrapezoid runs the benchmark's streamed class
// (384x64x16, 2 steps, w33k2: 12 tiles on two islands) and pins what the tile
// engines compute and hold. Each tile's engine partitions its owned planes,
// so inner step d sweeps them grown by d step halos per island: 75 plane-steps
// on the first tile, 78 on each of the ten interior ones and 51 on the last —
// 906, where engines partitioning everything they loaded swept 1104 and the
// result needs 768. The three engine shapes share one arena, so the run
// holds the memory of one widest-tile engine, the term
// exec.StreamResidentBytes prices.
func TestStreamedTilesComputeTheirTrapezoid(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(384, 64, 16)
	cfg := exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 2, KSteps: 2}
	want, _ := residentRun(t, cfg, domain, 0, false)

	s, err := New(Options{Dir: t.TempDir(), Exec: cfg, Domain: domain, TilePlanes: 33})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, s, want)

	st := s.Stats()
	planeCells := int64(domain.NJ * domain.NK)
	if got, want := st.OutputCells, 906*planeCells; got != want {
		t.Errorf("tile engines computed %d output cells (%d plane-steps), want %d (906 plane-steps)",
			got, got/planeCells, want)
	}
	if len(s.engines) != 3 {
		t.Errorf("%d engine shapes compiled, want 3 (first, interior, last)", len(s.engines))
	}
	prog, err := mpdata.NewProgramWithOptions(mpdata.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	priced := int64(exec.StreamEngineFields(cfg, &prog.Program)*s.Plan().MaxResidentPlanes()) * grid.PlaneBytes(domain)
	if st.PeakEngineBytes <= 0 || st.PeakEngineBytes > priced {
		t.Errorf("tile engines hold %d bytes, want within the %d exec.StreamResidentBytes prices for one widest-tile engine",
			st.PeakEngineBytes, priced)
	}
}

// TestStreamWindowedEnginesMatchResident covers the geometries on which the
// tile engines honour their owned window — one step per visit for every
// strategy and both boundaries, a k-block per visit for the islands — on
// several sweeps and odd tile remainders: the result stays bit-identical to
// the resident run, and at one step per visit no output cell is computed
// twice.
func TestStreamWindowedEnginesMatchResident(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(47, 9, 6)
	cases := []struct {
		name       string
		strategy   exec.Strategy
		bc         stencil.Boundary
		k, steps   int
		tilePlanes int
	}{
		{"original-clamp-k1", exec.Original, stencil.Clamp, 1, 3, 11},
		{"original-periodic-k1", exec.Original, stencil.Periodic, 1, 3, 11},
		{"plus31d-clamp-k1", exec.Plus31D, stencil.Clamp, 1, 2, 11},
		{"plus31d-periodic-k1", exec.Plus31D, stencil.Periodic, 1, 2, 11},
		{"islands-clamp-k1", exec.IslandsOfCores, stencil.Clamp, 1, 3, 11},
		{"islands-periodic-k1", exec.IslandsOfCores, stencil.Periodic, 1, 3, 11},
		{"islands-clamp-k2", exec.IslandsOfCores, stencil.Clamp, 2, 5, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := exec.Config{Machine: machine, Strategy: tc.strategy, Boundary: tc.bc, Steps: tc.steps, KSteps: tc.k}
			want, _ := residentRun(t, cfg, domain, 0, false)
			s, err := New(Options{Dir: t.TempDir(), Exec: cfg, Domain: domain, TilePlanes: tc.tilePlanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, s, want)
			for key, eng := range s.engines {
				if r := eng.runner.Schedule().Stats().WindowFallbackReason; r != "" {
					t.Errorf("engine %+v swept its whole loaded extent: %s", key, r)
				}
			}
			if got, owned := s.Stats().OutputCells, int64(tc.steps*domain.Cells()); tc.k == 1 && got != owned {
				t.Errorf("one step per visit computed %d output cells, want exactly the %d owned", got, owned)
			}
		})
	}
}

// TestStreamSetupJoinedOnEveryExit: the goroutine compiling the first tile
// shapes beside the store seeding is joined, and the engines it built are
// closed, however the streamer ends — closed before its first tile, aborted,
// or run to completion.
func TestStreamSetupJoinedOnEveryExit(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(47, 9, 6)
	cfg := exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 2, KSteps: 2}
	open := func() *Streamer {
		t.Helper()
		s, err := New(Options{Dir: t.TempDir(), Exec: cfg, Domain: domain, TilePlanes: 13})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := runtime.NumGoroutine()
	exits := map[string]func(s *Streamer){
		"close-before-first-tile": func(s *Streamer) {},
		"abort": func(s *Streamer) {
			s.Abort("test")
			if err := s.RunSweep(); err == nil {
				t.Error("aborted sweep returned no error")
			}
		},
		"run": func(s *Streamer) {
			if err := s.Run(); err != nil {
				t.Error(err)
			}
		},
	}
	for name, exit := range exits {
		s := open()
		exit(s)
		if err := s.Close(); err != nil {
			t.Errorf("%s: Close: %v", name, err)
		}
		if len(s.engines) != 0 {
			t.Errorf("%s: %d engines survive Close", name, len(s.engines))
		}
	}
	// Closed runners' workers may take a moment longer to return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d before, %d after the streamers closed", base, n)
	}
}
