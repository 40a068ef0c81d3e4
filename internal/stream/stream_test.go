package stream

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// residentRun advances the standard problem on a resident domain with the
// same executor configuration the streamed run uses per tile. Every
// strategy/boundary combination is solver-exact on the resident path —
// including IslandsOfCores under a Periodic boundary, which the executor's
// wrap bands (internal/exec/wrap.go) made exact — so the baseline runs the
// requested configuration verbatim; TestStreamIslandsPeriodicSolverExact
// pins the periodic case.
func residentRun(t *testing.T, cfg exec.Config, domain grid.Size, iord int, unlimited bool) (*grid.Field, float64) {
	t.Helper()
	if iord <= 0 {
		iord = mpdata.DefaultOptions().IORD
	}
	prog, err := mpdata.NewProgramWithOptions(mpdata.Options{IORD: iord, NonOscillatory: !unlimited})
	if err != nil {
		t.Fatal(err)
	}
	state := mpdata.NewState(domain)
	state.SetStandardProblem()
	massIn := state.Psi.Sum()
	if cfg.Strategy != exec.IslandsOfCores {
		cfg.KSteps = 0
	}
	r, err := exec.NewRunner(cfg, prog, state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	r.SyncFeedback()
	return state.Psi, massIn
}

// streamCase is one sampled configuration of the bit-identity property.
type streamCase struct {
	strategy   exec.Strategy
	boundary   stencil.Boundary
	k          int
	steps      int
	tilePlanes int
	nj, nk     int
}

// TestStreamedMatchesResident is the property test of the tentpole: over
// random domains, tile widths, strategies, boundaries and k in {1,2,4}, the
// streamed run's final field, checksum sum and initial mass are bit-identical
// to a resident run of the same configuration.
func TestStreamedMatchesResident(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	strategies := []exec.Strategy{exec.Original, exec.Plus31D, exec.IslandsOfCores}
	boundaries := []stencil.Boundary{stencil.Periodic, stencil.Clamp}
	ks := []int{1, 2, 4}

	cases := 10
	if testing.Short() {
		cases = 4
	}
	for n := 0; n < cases; n++ {
		c := streamCase{
			strategy:   strategies[rng.Intn(len(strategies))],
			boundary:   boundaries[rng.Intn(len(boundaries))],
			k:          ks[rng.Intn(len(ks))],
			steps:      2 + rng.Intn(6),
			tilePlanes: 2 + rng.Intn(4),
			nj:         5 + rng.Intn(6),
			nk:         4 + rng.Intn(4),
		}
		// Size NI so the plan is feasible (periodic needs room for the
		// k-step halo next to a tile) and yields at least 3 tiles.
		prog, err := mpdata.NewProgramWithOptions(mpdata.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		an, err := stencil.Analyze(&prog.Program)
		if err != nil {
			t.Fatal(err)
		}
		fextK := an.InputExtents[mpdata.InPsi].Scale(c.k)
		ni := max(3*c.tilePlanes+rng.Intn(3), c.tilePlanes+fextK.ILo+fextK.IHi+1)
		domain := grid.Sz(ni, c.nj, c.nk)

		cfg := exec.Config{
			Machine:  machine,
			Strategy: c.strategy,
			Boundary: c.boundary,
			Steps:    c.steps,
			KSteps:   c.k,
		}
		want, wantMass := residentRun(t, cfg, domain, 0, false)

		s, err := New(Options{
			Dir:        t.TempDir(),
			Exec:       cfg,
			Domain:     domain,
			TilePlanes: c.tilePlanes,
		})
		if err != nil {
			t.Fatalf("case %+v domain %v: New: %v", c, domain, err)
		}
		if len(s.Plan().Tiles) < 3 {
			t.Fatalf("case %+v domain %v: only %d tiles, want >=3", c, domain, len(s.Plan().Tiles))
		}
		if err := s.Run(); err != nil {
			t.Fatalf("case %+v domain %v: Run: %v", c, domain, err)
		}
		got, err := s.ReadResult()
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("case %+v domain %v: cell %d differs: streamed %v, resident %v",
					c, domain, i, got.Data[i], want.Data[i])
			}
		}
		cks, err := s.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		if cks.Sum != want.Sum() {
			t.Fatalf("case %+v: streamed sum %v != resident %v", c, cks.Sum, want.Sum())
		}
		if cks.MassIn != wantMass {
			t.Fatalf("case %+v: streamed massIn %v != resident %v", c, cks.MassIn, wantMass)
		}
		st := s.Stats()
		if st.BytesRead == 0 || st.BytesWritten == 0 {
			t.Fatalf("case %+v: no streaming I/O recorded: %+v", c, st)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s.Remove()
	}
}

// TestStreamResumeMidSweep kills a run after its first tile (via an abort
// from the progress hook), then resumes from the durable checkpoint and
// asserts the restart lands on the correct tile and the final field is
// bit-identical to an uninterrupted run.
func TestStreamResumeMidSweep(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(18, 6, 5)
	cfg := exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 6, KSteps: 2}
	dir := t.TempDir()

	var s1 *Streamer
	s1, err = New(Options{
		Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 5,
		Progress: func(p Progress) {
			if p.Sweep == 0 && p.Tile == 0 {
				s1.Abort("test kill")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s1.Run()
	if err == nil || !strings.Contains(err.Error(), "test kill") {
		t.Fatalf("expected abort error, got %v", err)
	}
	s1.Close()

	// The store must survive the abort with its checkpoint pointing past
	// the completed tile, and no partials on disk.
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Fatalf("partial files left after abort: %v", tmp)
	}
	s2, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 5, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ck.Sweep != 0 || s2.ck.Tile != 1 {
		t.Fatalf("resume landed on sweep %d tile %d, want sweep 0 tile 1", s2.ck.Sweep, s2.ck.Tile)
	}
	if s2.ResumedSteps() != 0 {
		t.Fatalf("ResumedSteps = %d before any committed sweep", s2.ResumedSteps())
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s2.Remove()

	want, _ := residentRun(t, cfg, domain, 0, false)
	if d := grid.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("resumed run differs from resident by %v, want bit-identical", d)
	}
}

// TestStreamResumeAcrossSweeps stops cleanly between sweeps and resumes.
func TestStreamResumeAcrossSweeps(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(16, 6, 4)
	cfg := exec.Config{Machine: machine, Strategy: exec.Plus31D, Boundary: stencil.Periodic, Steps: 6, KSteps: 2}
	dir := t.TempDir()

	s1, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RunSweep(); err != nil {
		t.Fatal(err)
	}
	if s1.StepsDone() != 2 {
		t.Fatalf("StepsDone = %d after one sweep of k=2", s1.StepsDone())
	}
	s1.Close()

	s2, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 4, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ResumedSteps() != 2 {
		t.Fatalf("ResumedSteps = %d, want 2", s2.ResumedSteps())
	}
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadResult()
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s2.Remove()
	want, _ := residentRun(t, cfg, domain, 0, false)
	if d := grid.MaxAbsDiff(got, want); d != 0 {
		t.Fatalf("resumed run differs from resident by %v", d)
	}
}

// TestStreamRejectsIncompatibleCheckpoint pins the resume safety contract:
// a checkpoint from a different run configuration errors instead of being
// silently clobbered or adopted.
func TestStreamRejectsIncompatibleCheckpoint(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(16, 6, 4)
	cfg := exec.Config{Machine: machine, Strategy: exec.Plus31D, Boundary: stencil.Periodic, Steps: 6, KSteps: 2}
	dir := t.TempDir()
	s1, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.RunSweep(); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	other := cfg
	other.Steps = 8
	if _, err := New(Options{Dir: dir, Exec: other, Domain: domain, TilePlanes: 4, Resume: true}); err == nil {
		t.Fatal("incompatible checkpoint adopted")
	}
}

// TestPlanValidation covers the planner's feasibility errors.
func TestPlanValidation(t *testing.T) {
	ext := stencil.Extent{ILo: 3, IHi: 3}
	if _, err := NewPlan(grid.Sz(8, 4, 4), 4, 1, 4, ext, stencil.Periodic); err == nil {
		t.Fatal("periodic halo overflow accepted")
	}
	if _, err := NewPlan(grid.Sz(8, 4, 4), 0, 1, 4, ext, stencil.Clamp); err == nil {
		t.Fatal("zero steps accepted")
	}
	p, err := NewPlan(grid.Sz(8, 4, 4), 4, 1, 4, ext, stencil.Clamp)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 2 || p.MaxResidentPlanes() != 7 {
		t.Fatalf("unexpected clamp plan: %+v (maxResident %d)", p, p.MaxResidentPlanes())
	}
	// Whole-domain degenerate tile has no halo.
	p, err = NewPlan(grid.Sz(8, 4, 4), 4, 2, 0, ext, stencil.Periodic)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 1 || p.ExtLo != 0 || p.ExtHi != 0 || p.MaxResidentPlanes() != 8 {
		t.Fatalf("unexpected whole-domain plan: %+v", p)
	}
	if p.Sweeps != 2 || p.KEffAt(1) != 2 {
		t.Fatalf("sweep arithmetic wrong: %+v", p)
	}
	// Remainder sweep.
	p, err = NewPlan(grid.Sz(8, 4, 4), 7, 4, 0, ext, stencil.Clamp)
	if err != nil {
		t.Fatal(err)
	}
	if p.Sweeps != 2 || p.KEffAt(0) != 4 || p.KEffAt(1) != 3 {
		t.Fatalf("remainder sweep arithmetic wrong: %+v", p)
	}
}

// TestStreamStoreLifecycle pins the cleanup contract: Close keeps the store
// for resume, Remove deletes it.
func TestStreamStoreLifecycle(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(12, 5, 4)
	cfg := exec.Config{Machine: machine, Strategy: exec.Original, Boundary: stencil.Clamp, Steps: 2, KSteps: 1}
	dir := filepath.Join(t.TempDir(), "spill")
	s, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointFile)); err != nil {
		t.Fatalf("checkpoint gone after Close: %v", err)
	}
	if err := s.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("spill dir survived Remove: %v", err)
	}
}

// TestOnlyResumableStoresSync pins which store writes fsync. A scratch store
// (no Resume) is deleted after its run, so it syncs nothing; a resumable one
// syncs the seeded planes once, each tile's planes once, and each checkpoint
// twice (its temp file and then the directory).
func TestOnlyResumableStoresSync(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(12, 5, 4)
	cfg := exec.Config{Machine: machine, Strategy: exec.Original, Boundary: stencil.Clamp, Steps: 2, KSteps: 1}
	defer func(orig func(interface{ Sync() error }) error) { fsync = orig }(fsync)
	syncs := 0
	fsync = func(f interface{ Sync() error }) error {
		syncs++
		return f.Sync()
	}
	for _, resume := range []bool{false, true} {
		syncs = 0
		s, err := New(Options{Dir: t.TempDir(), Exec: cfg, Domain: domain, TilePlanes: 5, Resume: resume})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Tiles < 2 || st.Sweeps < 2 {
			t.Fatalf("plan has %d tiles x %d sweeps, want a multi-tile, multi-sweep run", st.Tiles, st.Sweeps)
		}
		// Seed: one plane sync and the first checkpoint; each tile write:
		// its planes and its checkpoint.
		want := 0
		if resume {
			writes := st.Tiles * st.Sweeps
			want = 1 + 2 + writes*(1+2)
		}
		if syncs != want {
			t.Errorf("Resume=%v: %d fsyncs over %d tiles x %d sweeps, want %d", resume, syncs, st.Tiles, st.Sweeps, want)
		}
	}
}

// TestNewFailsCleanAfterSetupStarted covers New's error path after the set-up
// goroutine has started: openStore launches precompile, seeds the store, and
// only then writes the first checkpoint. A non-empty directory at the
// checkpoint path makes that write's atomic rename fail. New must return the
// rename error having joined the goroutine and closed what it opened: no
// goroutine, descriptor, mapping or temp file of the store outlives the call.
func TestNewFailsCleanAfterSetupStarted(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(24, 6, 4)
	cfg := exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 4, KSteps: 2}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, checkpointFile, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	baseGoroutines := runtime.NumGoroutine()

	s, err := New(Options{Dir: dir, Exec: cfg, Domain: domain, TilePlanes: 6})
	if err == nil {
		s.Close()
		t.Fatal("New succeeded with a directory at the checkpoint path")
	}
	var linkErr *os.LinkError
	if !errors.As(err, &linkErr) || linkErr.Op != "rename" {
		t.Fatalf("New = %v, want the checkpoint rename's error", err)
	}

	requireNothingLeft(t, dir, baseGoroutines)
}

// requireNothingLeft checks what a failed New leaves behind: no more than the
// baseGoroutines running before it, and no descriptor, mapping or partial
// file of the store in dir.
func requireNothingLeft(t *testing.T, dir string, baseGoroutines int) {
	t.Helper()
	// Closed runners' workers may take a moment to return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		t.Errorf("goroutines: %d before New, %d after its failure", baseGoroutines, n)
	}
	fds, maps := openUnder(t, dir)
	if fds != 0 || maps != 0 {
		t.Errorf("after the failed New: %d descriptors and %d mappings of files under the store", fds, maps)
	}
	if partials, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(partials) != 0 {
		t.Errorf("checkpoint partials left behind: %v", partials)
	}
}

// openUnder counts this process's open descriptors and memory mappings of
// files under dir.
func openUnder(t *testing.T, dir string) (fds, maps int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self to inspect")
	}
	for _, e := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); err == nil && strings.HasPrefix(target, dir) {
			fds++
		}
	}
	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skip("no /proc/self/maps to inspect")
	}
	return fds, strings.Count(string(raw), dir)
}
