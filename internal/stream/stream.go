// Package stream implements the out-of-core tile streaming executor: it runs
// MPDATA on domains too large for the configured memory budget by cutting the
// domain along the outer (i) axis into resident tiles widened by k-step
// halos, backing the full psi field with an on-disk ping/pong plane store
// (grid.PlaneFile), and driving each tile through the existing compiled-
// schedule engine for k steps per residency while a prefetch goroutine
// double-buffers the next tile's load (and the previous tile's writeback)
// against compute.
//
// Correctness rests on the same redundant-trapezoid argument as the paper's
// islands: a tile's input is its owned plane range grown by the feedback
// stencil's k-step extent, so after k uninterrupted steps the owned cells are
// bit-identical to a resident run — contamination from the cut edges (where
// the tile engine applies the global boundary condition to what is really
// domain interior) propagates at most one step-extent per step and dies in
// the discarded halo shell. Real domain edges coincide with tile edges, so
// the boundary condition is applied exactly where the resident run applies
// it; under a periodic i-boundary the halo planes are loaded mod NI. The
// tile engine computes no more than that trapezoid wherever it can run the
// k steps as one block: its output window (exec.Config.Keep) is the owned
// planes, so the halo planes are read and never recomputed. See
// docs/STREAMING.md.
//
// Because the halo argument holds regardless of the boundary condition, the
// streamed result is solver-exact even for IslandsOfCores under Periodic —
// a combination where the resident executor itself leaves stale wrap-edge
// values (see TestStreamIslandsPeriodicSolverExact).
package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/solver"
	"islands/internal/stencil"
)

// Store file names inside Options.Dir. psi.0 is the seed: seedStore writes
// the initial condition into it once and nothing writes it again. Sweep s
// reads psi.0 when s = 0 and psi.(1+(s-1)%2) otherwise, and writes
// psi.(1+s%2): psi ping/pongs between the other two files, so every tile of a
// sweep reads only sweep-(s-1) data and tiles are mutually independent, which
// is what makes both the prefetch overlap and the per-tile checkpoint sound.
// The untouched seed is what lets Rewind run the store again.
var psiFiles = [3]string{"psi.0.planes", "psi.1.planes", "psi.2.planes"}

const checkpointFile = "checkpoint.json"

// checkpointVersion is the version of the checkpoint format New writes;
// stores of any other version are incompatible runs and are not resumed.
const checkpointVersion = 3

// lockFile is a resumable store's lock (lockStore): it holds the pid of the
// process whose Streamer has the store open.
const lockFile = "lock"

// sweepInput and sweepOutput index the plane file sweep reads and writes.
func sweepInput(sweep int) int {
	if sweep == 0 {
		return 0
	}
	return 1 + (sweep-1)%2
}

func sweepOutput(sweep int) int { return 1 + sweep%2 }

// Options configures one streamed run.
type Options struct {
	// Dir is the spill directory backing the run (created if missing).
	Dir string
	// Exec carries the machine, strategy, boundary and placement of the
	// per-tile engines. Exec.Steps is the total step count; Exec.KSteps is
	// the residency k (steps per tile visit), clamped into [1, Steps].
	Exec exec.Config
	// Domain is the global domain (which need not fit in memory).
	Domain grid.Size
	// Solver names the catalog entry to stream ("" = mpdata). Only
	// streamable entries — those with plane-seeding support — are
	// accepted; the rest have no way to fill a tile's windows from the
	// global coordinates.
	Solver string
	// IORD and Unlimited select the program variant for solvers with
	// MPDATA options, as in serving.
	IORD      int
	Unlimited bool
	// Program, when the caller already built the solver's program for these
	// options (to pick the residency, say), spares New building it again.
	Program *stencil.KernelProgram
	// TilePlanes bounds each tile's owned i-planes (0 = one whole-domain
	// tile). The resident footprint scales with TilePlanes + k-step halo.
	TilePlanes int
	// Resume continues from a compatible checkpoint in Dir when one
	// exists (a fresh store is built otherwise). An incompatible
	// checkpoint is an error, never silently overwritten.
	//
	// Resume also makes the store durable: only a resumable store fsyncs —
	// the seeded planes, each tile's written planes, and each checkpoint's
	// temp file and directory — so that a crash at any instant resumes on
	// the correct tile. Without Resume nothing can reopen the store (its
	// owner deletes it after the run), so none of its writes is synced and
	// it writes no checkpoint at all: its progress lives in memory only.
	Resume bool
	// Progress, when set, is called after each tile's compute completes
	// (from the RunSweep goroutine).
	Progress func(p Progress)
}

// Progress is one tile-granular progress report.
type Progress struct {
	Sweep, Sweeps int
	Tile, Tiles   int
	// StepsDone counts globally completed steps (whole sweeps only — a
	// sweep's steps commit when its last tile does).
	StepsDone int
}

// Stats aggregates the stream's I/O and overlap accounting.
type Stats struct {
	Tiles, Sweeps int
	TilesDone     int // tile residencies completed this process
	ResumedSteps  int // steps already durable when the store was opened
	BytesRead     int64
	BytesWritten  int64
	// LoadStall/WriteStall is time compute spent waiting on the loader /
	// writeback; Compute is time inside the engines; Wall covers whole
	// sweeps. The stalls are the I/O the pipeline left exposed: they shrink
	// toward zero as loads and writebacks hide behind compute.
	LoadStall  time.Duration
	WriteStall time.Duration
	Compute    time.Duration
	Wall       time.Duration
	// IOTime is the time actually spent inside plane reads, writes and
	// syncs (summed across the loader and writer, which overlap compute).
	// BytesRead+BytesWritten over IOTime is the store's observed disk
	// throughput — for a resumable store, what the serving layer's
	// bandwidth EWMA feeds back into residency pricing; a scratch store is
	// never synced, so its figure is the page cache's.
	IOTime time.Duration
	// Mmap reports that plane reads go through a mapping; false where the
	// platform has none and reads fall back to pread.
	Mmap bool
	// OutputCells counts the cells of the streamed field the tile engines
	// computed this process: per tile visit, its owned planes once per step
	// plus the redundant trapezoid growth of the earlier inner steps (see
	// docs/STREAMING.md "Tile geometry").
	OutputCells int64
	// PeakEngineBytes is the field storage the run's tile engines occupy —
	// all shapes together, since they share one arena. It stays within the
	// engine term of exec.StreamPlan.ResidentBytes: exec.EngineFields
	// fields of the widest tile.
	PeakEngineBytes int64
}

// DiskBW returns the observed disk throughput in bytes/s (0 until any I/O).
func (s Stats) DiskBW() float64 {
	if s.IOTime <= 0 {
		return 0
	}
	return float64(s.BytesRead+s.BytesWritten) / s.IOTime.Seconds()
}

// OverlapEfficiency is the fraction of wall time not lost to I/O stalls
// (1 = perfect compute/I/O overlap).
func (s Stats) OverlapEfficiency() float64 {
	if s.Wall <= 0 {
		return 0
	}
	e := 1 - float64(s.LoadStall+s.WriteStall)/float64(s.Wall)
	return max(0, min(1, e))
}

// Checksums summarizes the final psi field, mirroring the serving contract.
// Sum is computed with the same compensated accumulator and visitation order
// as grid.Field.Sum, so it is bit-identical to the resident run's.
type Checksums struct {
	Sum, Min, Max float64
	MassIn        float64
}

// checkpoint is the store's progress record: the next unit of work (sweep,
// tile) plus an echo of the geometry it is only valid for. A resumable store
// writes it with grid.WriteFileAtomic after each tile's planes, both synced,
// so a kill at any instant resumes on the correct tile; a scratch store keeps
// it in memory only.
type checkpoint struct {
	Version int    `json:"version"`
	Domain  [3]int `json:"domain"`
	// Solver records which catalog entry wrote the store; resume rejects a
	// run requesting a different solver (the planes would be meaningless).
	Solver     string  `json:"solver"`
	Steps      int     `json:"steps"`
	K          int     `json:"k"`
	TilePlanes int     `json:"tile_planes"`
	IORD       int     `json:"iord"`
	Unlimited  bool    `json:"unlimited"`
	Boundary   int     `json:"boundary"`
	Strategy   string  `json:"strategy"`
	Sweep      int     `json:"sweep"`
	Tile       int     `json:"tile"`
	MassIn     float64 `json:"mass_in"`
	// Digest is the CRC-32 (IEEE) of the record's JSON with Digest zero. The
	// plane files cannot tell one progress record from another, so a
	// checkpoint damaged into another well-formed one — an in-range sweep or
	// tile whose planes the store does not hold — fails its resume instead of
	// computing from the wrong planes.
	Digest uint32 `json:"digest"`
}

// digest computes ck's Digest.
func (ck checkpoint) digest() (uint32, error) {
	ck.Digest = 0
	raw, err := json.Marshal(ck)
	return crc32.ChecksumIEEE(raw), err
}

// intact reports whether ck carries the digest of its fields.
func (ck checkpoint) intact() bool {
	d, err := ck.digest()
	return err == nil && d == ck.Digest
}

// StoredResidency reports the residency (tile width and k) recorded in dir's
// checkpoint, if any. Callers resuming a named store use it to keep the
// checkpointed residency even when a fresh cost-model pick would now differ
// (resume validation rejects a changed tile geometry). It reads the
// checkpoint under the store's lock, so a store that another Streamer holds
// fails here, naming the holder, before the caller prices a residency the
// holder may be rewriting.
func StoredResidency(dir string) (tilePlanes, k int, ok bool, err error) {
	path := filepath.Join(dir, checkpointFile)
	if _, err := os.Stat(path); err != nil {
		return 0, 0, false, nil
	}
	lock, err := lockStore(dir)
	if err != nil {
		return 0, 0, false, err
	}
	defer lock.Close() // a nil lock (no flock on this platform) closes as a no-op
	ck, found, err := readCheckpoint(dir)
	if err != nil || !found || !ck.intact() || ck.TilePlanes < 1 || ck.K < 1 {
		return 0, 0, false, nil
	}
	return ck.TilePlanes, ck.K, true, nil
}

// readCheckpoint reads dir's checkpoint, if any, and checks that it is
// well-formed JSON and, when it has this format's version, that it carries
// the digest of its fields. Whether it describes the run at hand is
// resumeStore's question.
func readCheckpoint(dir string) (ck checkpoint, found bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, os.ErrNotExist) {
		return ck, false, nil
	}
	if err != nil {
		return ck, false, err
	}
	if err := json.Unmarshal(raw, &ck); err != nil {
		return ck, false, fmt.Errorf("stream: corrupt checkpoint in %s: %w", dir, err)
	}
	if ck.Version == checkpointVersion && !ck.intact() {
		return ck, false, fmt.Errorf("stream: corrupt checkpoint in %s: its digest does not match its fields", dir)
	}
	return ck, true, nil
}

// engineKey identifies a compiled tile engine: tiles of one plan shape
// advanced the same steps reuse one runner (at most three distinct keys per
// sweep in practice — first, interior and last tiles).
type engineKey struct {
	shape exec.StreamShape
	steps int
}

type tileEngine struct {
	state  *solver.State
	runner *exec.Runner
	// outputCells is what one Run computes of the streamed field.
	outputCells int64
}

// Streamer drives one streamed run. It is not safe for concurrent use except
// for Abort, which may be called from any goroutine.
type Streamer struct {
	o     Options
	plan  *exec.StreamPlan
	entry *solver.Entry
	prog  *stencil.KernelProgram

	files [3]*grid.PlaneFile
	ck    checkpoint
	// lock holds a resumable store's flock until Close (nil otherwise).
	lock *os.File

	// engines holds the compiled tile engines. Their fields all come from
	// arena, rewound before each build: the shapes alias one another's
	// storage, so the run holds one widest engine's memory however many
	// shapes it compiles, and only one engine may be built or run at a time.
	// setup joins the goroutine that builds the first sweep's shapes while the
	// store is seeded; every other use of engines and arena waits for it.
	engines map[engineKey]*tileEngine
	arena   *grid.Arena
	setup   sync.WaitGroup

	// Reusable pipeline buffers: two load + two writeback, sized for the
	// widest tile, allocated by the first sweep that needs them.
	loadFree  chan []float64
	writeFree chan []float64

	mu          sync.Mutex // guards active
	active      *exec.Runner
	aborted     atomic.Bool
	abortReason atomic.Pointer[string]

	statsMu sync.Mutex
	stats   Stats

	// final is the final field's summary, folded by the last sweep's writer
	// (runSweepPipelined). It is nil when that sweep did not run whole in
	// this process — a resume into it, or an error — and Checksums then
	// scans the store instead.
	final *grid.Summary
}

// New opens (or creates) the spill store and prepares the tile plan. With
// Options.Resume and a compatible checkpoint present, the run continues from
// the recorded tile; otherwise the store is seeded with the standard
// problem's initial psi, plane by plane.
func New(o Options) (*Streamer, error) {
	if o.Exec.Machine == nil {
		return nil, fmt.Errorf("stream: config needs a machine")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("stream: config needs a spill directory")
	}
	entry, err := solver.Lookup(o.Solver)
	if err != nil {
		return nil, err
	}
	if !entry.Streamable() {
		return nil, fmt.Errorf("stream: solver %q has no plane-seeding support and cannot be streamed", entry.Name)
	}
	o.Solver = entry.Name
	if entry.CheckDomain != nil {
		if err := entry.CheckDomain(o.Domain); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
	if entry.MPDATAOptions && o.IORD <= 0 {
		o.IORD = mpdata.DefaultOptions().IORD
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Streamer{o: o, entry: entry, engines: make(map[engineKey]*tileEngine)}
	// A resumable store outlives its Streamer, so another process (a second
	// server on the same spill root, a CLI run on a server's store) can open
	// it too: lock it before anything in it is touched. Its checkpoint is
	// read and checked under the lock before anything is built, so a damaged
	// one fails the open at once. An anonymous store's directory is its
	// opener's alone.
	var stored *checkpoint
	if o.Resume {
		if s.lock, err = lockStore(o.Dir); err != nil {
			return nil, err
		}
		ck, found, err := readCheckpoint(o.Dir)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		if found {
			stored = &ck
		}
	}
	if err := s.prepare(); err != nil {
		_ = s.Close()
		return nil, err
	}
	// A dirty previous exit can leave *.tmp partials (an interrupted
	// checkpoint rename or plane-file creation); sweep them first.
	if _, err := grid.RemovePartials(o.Dir); err != nil {
		_ = s.Close()
		return nil, err
	}
	if err := s.openStore(stored); err != nil {
		_ = s.Close()
		return nil, err
	}
	s.mapFiles()
	return s, nil
}

// prepare builds the solver program (unless Options.Program supplies it) and
// the tile plan, and checks that the plan's tiles can host the island
// partition.
func (s *Streamer) prepare() error {
	o := &s.o
	s.prog = o.Program
	if s.prog == nil {
		var err error
		if s.prog, err = s.entry.NewProgram(solver.Options{IORD: o.IORD, Unlimited: o.Unlimited}); err != nil {
			return err
		}
	}
	analysis, err := stencil.Analyze(&s.prog.Program)
	if err != nil {
		return err
	}
	fext, err := exec.StreamHalo(&s.prog.Program, analysis)
	if err != nil {
		return err
	}
	s.plan, err = exec.NewStreamPlan(o.Domain, o.Exec.Steps, exec.StreamChoice{TilePlanes: o.TilePlanes, K: o.Exec.KSteps}, fext, o.Exec.Boundary)
	if err != nil {
		return err
	}
	if err := checkIslandWidth(o.Exec, s.plan); err != nil {
		return err
	}
	s.stats.Tiles = len(s.plan.Tiles)
	s.stats.Sweeps = s.plan.Sweeps
	return nil
}

// mapFiles switches the store's reads to memory mappings where the platform
// has them.
func (s *Streamer) mapFiles() {
	mapped := false
	for _, f := range s.files {
		if ok, err := f.EnableMmap(); err == nil && ok {
			mapped = true
		}
	}
	s.statsMu.Lock()
	s.stats.Mmap = mapped
	s.statsMu.Unlock()
}

// allocBuffers allocates the pipeline buffers unless they exist.
func (s *Streamer) allocBuffers() {
	if s.loadFree != nil {
		return
	}
	planeCells := int(grid.PlaneBytes(s.o.Domain) / grid.CellBytes)
	maxCells := s.plan.MaxResidentPlanes() * planeCells
	ownedCells := s.plan.TilePlanes * planeCells
	s.loadFree = make(chan []float64, 2)
	s.writeFree = make(chan []float64, 2)
	for n := 0; n < 2; n++ {
		s.loadFree <- make([]float64, maxCells)
		s.writeFree <- make([]float64, ownedCells)
	}
}

// checkIslandWidth rejects plans whose narrowest tile cannot host the
// configured island partition (1D variant A cuts along i, so each loaded
// sub-domain must span at least one plane per island).
func checkIslandWidth(cfg exec.Config, p *exec.StreamPlan) error {
	if cfg.Strategy != exec.IslandsOfCores || cfg.IslandGrid != [2]int{} {
		return nil
	}
	if cfg.Variant != 0 { // decomp.VariantB partitions along j
		return nil
	}
	nodes := cfg.Machine.NumNodes()
	for t, tile := range p.Tiles {
		if tile.ExtNI < nodes {
			return fmt.Errorf(
				"stream: tile %d loads %d planes but the machine has %d islands along i; widen TilePlanes to at least %d",
				t, tile.ExtNI, nodes, nodes)
		}
	}
	return nil
}

// openStore creates a fresh store (seeding psi.0 from the standard problem
// and recording the initial mass) or, given the checkpoint a resumable store
// holds, revalidates and adopts the existing one.
func (s *Streamer) openStore(stored *checkpoint) error {
	if stored != nil {
		if err := s.resumeStore(*stored); err != nil {
			return err
		}
		s.precompile(s.ck.Sweep, s.ck.Tile)
		return nil
	}
	for i, name := range psiFiles {
		var err error
		if s.files[i], err = grid.CreatePlaneFile(filepath.Join(s.o.Dir, name), s.o.Domain); err != nil {
			return err
		}
	}
	// The first tiles' engines compile while the store is seeded, instead of
	// inside tiles 0 and 1.
	s.precompile(0, 0)
	massIn, err := s.seedStore()
	if err != nil {
		return err
	}
	if err := s.sync(s.files[0]); err != nil {
		return err
	}
	s.ck = s.checkpointAt(0, 0, massIn)
	return s.writeCheckpoint(s.ck)
}

// seedChunk is how many planes the seeding pipeline generates per hand-off.
const seedChunk = 16

// seedStore fills sweep 0's input with the solver's initial condition and
// returns its mass. The planes of a chunk are generated on every core (the
// initial condition is transcendental per cell); the caller's goroutine then
// folds the chunk into the mass accumulator and writes it out while the next
// chunk is generated. The fold visits the cells in the same flat order as a
// resident Field.Sum, so the conservation baseline is bit-identical.
func (s *Streamer) seedStore() (float64, error) {
	ni := s.o.Domain.NI
	planeCells := int(grid.PlaneBytes(s.o.Domain) / grid.CellBytes)
	type chunk struct {
		lo, n int
		buf   []float64
	}
	free := make(chan []float64, 2)
	ready := make(chan chunk)
	for n := 0; n < cap(free); n++ {
		free <- make([]float64, seedChunk*planeCells)
	}
	workers := min(runtime.GOMAXPROCS(0), seedChunk)
	go func() {
		defer close(ready)
		for lo := 0; lo < ni; lo += seedChunk {
			c := chunk{lo: lo, n: min(seedChunk, ni-lo), buf: <-free}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for p := w; p < c.n; p += workers {
						s.entry.Stream.SeedPlane(c.buf[p*planeCells:(p+1)*planeCells], s.o.Domain, c.lo+p)
					}
				}(w)
			}
			wg.Wait()
			ready <- c
		}
	}()
	mass := grid.NewSummary()
	var err error
	for c := range ready {
		// After a write error keep draining, so the generator can finish.
		if err == nil {
			cells := c.buf[:c.n*planeCells]
			mass.Add(cells)
			err = s.files[0].WritePlanes(cells, c.lo, c.n)
		}
		free <- c.buf
	}
	return mass.Sum(), err
}

// precompile builds, on its own goroutine, the engines of every tile shape the
// sweep still has to visit from the given tile on. A failed build is left for
// the tile that needs it to repeat and report.
func (s *Streamer) precompile(sweep, tile int) {
	if sweep >= s.plan.Sweeps {
		return
	}
	steps := s.plan.KEffAt(sweep)
	s.setup.Add(1)
	go func() {
		defer s.setup.Done()
		for t := tile; t < len(s.plan.Tiles); t++ {
			if _, err := s.buildEngine(engineKey{s.plan.Tiles[t].StreamShape, steps}); err != nil {
				return
			}
		}
	}()
}

// checkpointAt builds the progress record for the next unit of work.
func (s *Streamer) checkpointAt(sweep, tile int, massIn float64) checkpoint {
	return checkpoint{
		Version:    checkpointVersion,
		Domain:     [3]int{s.o.Domain.NI, s.o.Domain.NJ, s.o.Domain.NK},
		Solver:     s.o.Solver,
		Steps:      s.plan.Steps,
		K:          s.plan.K,
		TilePlanes: s.plan.TilePlanes,
		IORD:       s.o.IORD,
		Unlimited:  s.o.Unlimited,
		Boundary:   int(s.o.Exec.Boundary),
		Strategy:   s.o.Exec.Strategy.String(),
		Sweep:      sweep,
		Tile:       tile,
		MassIn:     massIn,
	}
}

// resumeStore adopts an existing store after validating that its checkpoint,
// intact (readCheckpoint), describes this exact run (geometry, program
// variant, strategy).
func (s *Streamer) resumeStore(ck checkpoint) error {
	want := s.checkpointAt(ck.Sweep, ck.Tile, ck.MassIn)
	want.Digest = ck.Digest
	if ck != want {
		return fmt.Errorf("stream: checkpoint in %s was written by an incompatible run (version %d solver=%s domain %dx%dx%d steps=%d k=%d tile_planes=%d)",
			s.o.Dir, ck.Version, ck.Solver, ck.Domain[0], ck.Domain[1], ck.Domain[2], ck.Steps, ck.K, ck.TilePlanes)
	}
	ck.Digest = 0
	if ck.Sweep < 0 || ck.Sweep > s.plan.Sweeps || ck.Tile < 0 || ck.Tile >= len(s.plan.Tiles) {
		return fmt.Errorf("stream: checkpoint in %s records out-of-range progress sweep=%d tile=%d", s.o.Dir, ck.Sweep, ck.Tile)
	}
	for i, name := range psiFiles {
		var err error
		if s.files[i], err = grid.OpenPlaneFile(filepath.Join(s.o.Dir, name)); err != nil {
			return err
		}
		if s.files[i].Size() != s.o.Domain {
			return fmt.Errorf("stream: store in %s holds a %v field, want %v", s.o.Dir, s.files[i].Size(), s.o.Domain)
		}
	}
	s.ck = ck
	s.stats.ResumedSteps = s.plan.StepsBefore(ck.Sweep)
	return nil
}

// fsync makes one store file durable. It is a variable so that tests can
// count the calls.
var fsync = func(f interface{ Sync() error }) error { return f.Sync() }

// sync fsyncs f when the store is resumable (see Options.Resume).
func (s *Streamer) sync(f interface{ Sync() error }) error {
	if !s.o.Resume {
		return nil
	}
	return fsync(f)
}

// writeCheckpoint publishes ck atomically and durably when the store is
// resumable. A scratch store writes none: nothing can reopen it.
func (s *Streamer) writeCheckpoint(ck checkpoint) error {
	if !s.o.Resume {
		return nil
	}
	var err error
	if ck.Digest, err = ck.digest(); err != nil {
		return err
	}
	raw, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return grid.WriteFileAtomic(filepath.Join(s.o.Dir, checkpointFile), raw, func(f *os.File) error { return fsync(f) })
}

// Plan exposes the tile geometry.
func (s *Streamer) Plan() *exec.StreamPlan { return s.plan }

// Done reports whether every sweep has committed.
func (s *Streamer) Done() bool { return s.ck.Sweep >= s.plan.Sweeps }

// ResumedSteps returns the steps already durable when the store was opened.
func (s *Streamer) ResumedSteps() int { return s.stats.ResumedSteps }

// StepsDone returns the globally committed steps (whole sweeps only).
func (s *Streamer) StepsDone() int { return s.plan.StepsBefore(s.ck.Sweep) }

// Stats snapshots the I/O and overlap accounting.
func (s *Streamer) Stats() Stats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.stats
}

// Abort cancels the run from another goroutine: the in-flight tile engine is
// poisoned through the schedule's barrier-abort path and the next pipeline
// stage stops. The checkpoint keeps the last durable tile, so an aborted
// named run resumes exactly there.
func (s *Streamer) Abort(reason string) {
	r := reason
	s.abortReason.CompareAndSwap(nil, &r)
	s.aborted.Store(true)
	s.mu.Lock()
	if s.active != nil {
		s.active.Abort(reason)
	}
	s.mu.Unlock()
}

func (s *Streamer) abortErr() error {
	if r := s.abortReason.Load(); r != nil {
		return fmt.Errorf("stream: aborted: %s", *r)
	}
	return fmt.Errorf("stream: aborted")
}

// RunSweep advances the run by one sweep: every remaining tile of the
// current sweep is loaded, advanced KEff steps, and written back. The sweep
// commits (Done/StepsDone advance) only when its last tile is durable.
func (s *Streamer) RunSweep() error {
	if s.Done() {
		return nil
	}
	if s.aborted.Load() {
		return s.abortErr()
	}
	sweep := s.ck.Sweep
	t0 := time.Now()
	s.allocBuffers()
	err := s.runSweepPipelined(sweep)
	s.statsMu.Lock()
	s.stats.Wall += time.Since(t0)
	s.statsMu.Unlock()
	if err != nil {
		return err
	}
	s.ck = s.checkpointAt(sweep+1, 0, s.ck.MassIn)
	return nil
}

// Run drives the stream to completion (the CLI entry point; serving drives
// RunSweep itself to interleave progress reporting).
func (s *Streamer) Run() error {
	for !s.Done() {
		if err := s.RunSweep(); err != nil {
			return err
		}
	}
	return nil
}

// engine returns (building on first use) the compiled tile engine of a shape,
// once the set-up goroutine has handed the engines over.
func (s *Streamer) engine(key engineKey) (*tileEngine, error) {
	s.setup.Wait()
	return s.buildEngine(key)
}

// buildEngine compiles the engine of a shape unless it exists: a runner whose
// output window (exec.Config.Keep) is the tile's owned planes, so each inner
// step sweeps the trapezoid under them and not the loaded rectangle. The step
// inputs are allocated here rather than by the entry's NewState so that they,
// too, come from the shared arena; Stream.FillWindow rewrites every one but
// the feedback field before each tile, which the store supplies.
func (s *Streamer) buildEngine(key engineKey) (*tileEngine, error) {
	if e, ok := s.engines[key]; ok {
		return e, nil
	}
	cfg, size := exec.StreamTileConfig(s.o.Exec, key.steps, s.o.Domain, key.shape)
	prog := &s.prog.Program
	if s.arena == nil {
		// One widest-tile engine's worth of fields, allocated (and zeroed)
		// here so that it, too, overlaps the store seeding.
		widest := grid.Sz(s.plan.MaxResidentPlanes(), s.o.Domain.NJ, s.o.Domain.NK)
		s.arena = grid.NewArena(exec.EngineFields(s.o.Exec, prog).Total() * widest.Cells())
	}
	s.arena.Rewind()
	state := &solver.State{Domain: size, Inputs: make(map[string]*grid.Field, len(prog.StepInputs)), Feedback: prog.Feedback}
	for _, name := range prog.StepInputs {
		state.Inputs[name] = s.arena.NewField(name, size)
	}
	runner, err := exec.NewRunnerIn(s.arena, cfg, s.prog, state.Inputs, state.Feedback)
	if err != nil {
		return nil, err
	}
	e := &tileEngine{state: state, runner: runner, outputCells: runner.Plan().OutputCells}
	s.engines[key] = e
	s.statsMu.Lock()
	s.stats.PeakEngineBytes = int64(s.arena.Cells()) * grid.CellBytes
	s.statsMu.Unlock()
	return e, nil
}

// loadTile reads tile t's extended plane range from the sweep's input file.
func (s *Streamer) loadTile(in *grid.PlaneFile, t int, buf []float64) (int64, error) {
	tile := s.plan.Tiles[t]
	t0 := time.Now()
	var err error
	if s.plan.Boundary == stencil.Periodic {
		err = in.ReadPlanesWrap(buf, tile.Base(), tile.ExtNI)
	} else {
		err = in.ReadPlanes(buf, tile.Base(), tile.ExtNI)
	}
	s.statsMu.Lock()
	s.stats.IOTime += time.Since(t0)
	s.statsMu.Unlock()
	return int64(tile.ExtNI) * grid.PlaneBytes(s.o.Domain), err
}

// computeTile advances tile t by steps steps on psi planes already staged in
// buf, leaving the owned output planes in out.
func (s *Streamer) computeTile(sweep, t, steps int, buf, out []float64) error {
	tile := s.plan.Tiles[t]
	eng, err := s.engine(engineKey{tile.StreamShape, steps})
	if err != nil {
		return err
	}
	planeCells := int(grid.PlaneBytes(s.o.Domain) / grid.CellBytes)
	fb := eng.state.Output()
	copy(fb.Data, buf[:tile.ExtNI*planeCells])
	if s.entry.Stream.FillWindow != nil {
		// Non-feedback step inputs (mpdata's velocities) are refilled from
		// the tile's global plane coordinates.
		s.entry.Stream.FillWindow(eng.state, s.o.Domain, func(li int) int {
			return s.plan.GlobalPlane(tile, li)
		})
	}
	eng.runner.ReloadFeedback()

	s.mu.Lock()
	s.active = eng.runner
	s.mu.Unlock()
	c0 := time.Now()
	runErr := eng.runner.Run()
	s.mu.Lock()
	s.active = nil
	s.mu.Unlock()
	s.statsMu.Lock()
	s.stats.Compute += time.Since(c0)
	s.stats.OutputCells += eng.outputCells
	s.statsMu.Unlock()
	if runErr != nil {
		if s.aborted.Load() {
			return s.abortErr()
		}
		return runErr
	}
	if s.aborted.Load() {
		return s.abortErr()
	}
	eng.runner.SyncFeedback()
	copy(out[:tile.Width*planeCells], fb.Data[tile.ExtLo*planeCells:(tile.ExtLo+tile.Width)*planeCells])
	return nil
}

// writeTile persists tile t's owned planes into the sweep's output file,
// syncs them when the store is resumable, and advances the checkpoint past
// the tile.
func (s *Streamer) writeTile(out *grid.PlaneFile, sweep, t int, buf []float64) (int64, error) {
	tile := s.plan.Tiles[t]
	t0 := time.Now()
	err := out.WritePlanes(buf, tile.Lo, tile.Width)
	if err == nil {
		err = s.sync(out)
	}
	s.statsMu.Lock()
	s.stats.IOTime += time.Since(t0)
	s.statsMu.Unlock()
	if err != nil {
		return 0, err
	}
	next := s.checkpointAt(sweep, t+1, s.ck.MassIn)
	if t+1 == len(s.plan.Tiles) {
		next = s.checkpointAt(sweep+1, 0, s.ck.MassIn)
	}
	if err := s.writeCheckpoint(next); err != nil {
		return 0, err
	}
	return int64(tile.Width) * grid.PlaneBytes(s.o.Domain), nil
}

// reportProgress invokes the progress hook for a completed tile compute.
func (s *Streamer) reportProgress(sweep, t int) {
	s.statsMu.Lock()
	s.stats.TilesDone++
	s.statsMu.Unlock()
	if s.o.Progress == nil {
		return
	}
	s.o.Progress(Progress{
		Sweep: sweep, Sweeps: s.plan.Sweeps,
		Tile: t, Tiles: len(s.plan.Tiles),
		StepsDone: s.plan.StepsBefore(sweep),
	})
}

// runSweepPipelined overlaps the next tile's load and the previous tile's
// writeback with the current tile's compute: a loader goroutine fills one of
// two staging buffers ahead of compute, and a writer goroutine drains
// completed tiles behind it (double buffering on both sides). Tiles within a
// sweep only read sweep-(s-1) planes, so the pipeline needs no intra-sweep
// ordering beyond the buffer hand-offs; prefetch deliberately does not cross
// the sweep boundary (the next sweep reads this sweep's output).
//
// The last sweep, run from its first tile, also folds the final field's
// summary as the writer writes it: the tiles own consecutive plane ranges in
// ascending order and reach the writer in that order, so the fold visits the
// cells in Field.Sum's order and its checksums are the scan's bit for bit.
func (s *Streamer) runSweepPipelined(sweep int) error {
	in, out := s.files[sweepInput(sweep)], s.files[sweepOutput(sweep)]
	kEff := s.plan.KEffAt(sweep)
	tiles := len(s.plan.Tiles)
	planeCells := int(grid.PlaneBytes(s.o.Domain) / grid.CellBytes)
	var fold *grid.Summary
	if sweep == s.plan.Sweeps-1 && s.ck.Tile == 0 {
		sm := grid.NewSummary()
		fold = &sm
	}

	type loadMsg struct {
		tile int
		buf  []float64
		err  error
	}
	type writeMsg struct {
		tile int
		buf  []float64
	}
	stop := make(chan struct{})
	loadCh := make(chan loadMsg, 1)
	writeCh := make(chan writeMsg, 1)
	writeDone := make(chan error, 1)
	loaderDone := make(chan struct{})

	go func() { // loader: stays one tile ahead of compute
		defer close(loaderDone)
		defer close(loadCh)
		for t := s.ck.Tile; t < tiles; t++ {
			var buf []float64
			select {
			case buf = <-s.loadFree:
			case <-stop:
				return
			}
			nr, err := s.loadTile(in, t, buf)
			s.statsMu.Lock()
			s.stats.BytesRead += nr
			s.statsMu.Unlock()
			select {
			case loadCh <- loadMsg{t, buf, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	go func() { // writer: drains completed tiles and advances the checkpoint
		var werr error
		for m := range writeCh {
			if werr == nil {
				nw, err := s.writeTile(out, sweep, m.tile, m.buf)
				s.statsMu.Lock()
				s.stats.BytesWritten += nw
				s.statsMu.Unlock()
				werr = err
				if err == nil && fold != nil {
					fold.Add(m.buf[:s.plan.Tiles[m.tile].Width*planeCells])
				}
			}
			s.writeFree <- m.buf
		}
		writeDone <- werr
	}()

	computeErr := func() error {
		for t := s.ck.Tile; t < tiles; t++ {
			if s.aborted.Load() {
				return s.abortErr()
			}
			l0 := time.Now()
			m, ok := <-loadCh
			s.statsMu.Lock()
			s.stats.LoadStall += time.Since(l0)
			s.statsMu.Unlock()
			if !ok {
				return s.abortErr()
			}
			if m.err != nil {
				s.loadFree <- m.buf
				return m.err
			}
			w0 := time.Now()
			// Never deadlocks: the writer returns every buffer to
			// writeFree (cap 2 covers both buffers) before blocking.
			wbuf := <-s.writeFree
			s.statsMu.Lock()
			s.stats.WriteStall += time.Since(w0)
			s.statsMu.Unlock()
			err := s.computeTile(sweep, m.tile, kEff, m.buf, wbuf)
			s.loadFree <- m.buf
			if err != nil {
				s.writeFree <- wbuf
				return err
			}
			writeCh <- writeMsg{m.tile, wbuf}
			s.reportProgress(sweep, m.tile)
		}
		return nil
	}()
	close(stop)
	close(writeCh)
	werr := <-writeDone
	// Join the loader too: on an abort or error it may still be inside a
	// plane read, and the caller is free to Close (unmap) the files as soon
	// as this returns.
	<-loaderDone
	if computeErr != nil {
		return computeErr
	}
	if werr == nil && fold != nil {
		s.final = fold
	}
	return werr
}

// Checksums summarizes the final field once the run is done: the summary
// the last sweep's writer folded when that sweep ran whole in this process,
// a scan of the store otherwise. MassIn is the initial-condition sum
// recorded when the store was seeded.
func (s *Streamer) Checksums() (Checksums, error) {
	if !s.Done() {
		return Checksums{}, fmt.Errorf("stream: checksums requested before completion (sweep %d/%d)", s.ck.Sweep, s.plan.Sweeps)
	}
	if s.final != nil {
		return Checksums{Sum: s.final.Sum(), Min: s.final.Min, Max: s.final.Max, MassIn: s.ck.MassIn}, nil
	}
	return s.scan()
}

// scan reads the final field back from the store and summarizes it.
func (s *Streamer) scan() (Checksums, error) {
	res := s.files[sweepOutput(s.plan.Sweeps-1)]
	planeCells := int(grid.PlaneBytes(s.o.Domain) / grid.CellBytes)
	buf := make([]float64, planeCells)
	sm := grid.NewSummary()
	for i := 0; i < s.o.Domain.NI; i++ {
		if err := res.ReadPlanes(buf, i, 1); err != nil {
			return Checksums{}, err
		}
		sm.Add(buf)
	}
	return Checksums{Sum: sm.Sum(), Min: sm.Min, Max: sm.Max, MassIn: s.ck.MassIn}, nil
}

// ReadResult copies the final psi field into a resident grid (tests and
// small-domain tooling only — it materializes the whole domain).
func (s *Streamer) ReadResult() (*grid.Field, error) {
	if !s.Done() {
		return nil, fmt.Errorf("stream: result requested before completion")
	}
	f := grid.NewField(s.prog.Program.Feedback, s.o.Domain)
	res := s.files[sweepOutput(s.plan.Sweeps-1)]
	if err := res.ReadPlanes(f.Data, 0, s.o.Domain.NI); err != nil {
		return nil, err
	}
	return f, nil
}

// Release drops what only a running sweep needs — the tile engines, their
// arena, the pipeline buffers and the read mappings — and keeps the store and
// its progress: Checksums and ReadResult still read it (through pread), and
// Rewind makes it runnable again.
func (s *Streamer) Release() {
	s.closeEngines()
	s.arena = nil
	s.loadFree, s.writeFree = nil, nil
	for _, f := range s.files {
		if f != nil {
			f.DisableMmap()
		}
	}
}

// Rewind starts the run over on the same store: the checkpoint goes back to
// sweep 0, tile 0 with the recorded MassIn, the per-job Stats restart from
// zero, and the first sweep's tile engines are rebuilt in the background, as
// a fresh store's are while it is seeded. Nothing writes the seed, so a
// rewound run reproduces the first one bit for bit. An aborted streamer stays
// aborted.
func (s *Streamer) Rewind() error {
	if s.aborted.Load() {
		return s.abortErr()
	}
	s.setup.Wait()
	s.ck = s.checkpointAt(0, 0, s.ck.MassIn)
	s.final = nil
	if err := s.writeCheckpoint(s.ck); err != nil {
		return err
	}
	s.statsMu.Lock()
	s.stats = Stats{Tiles: len(s.plan.Tiles), Sweeps: s.plan.Sweeps}
	s.statsMu.Unlock()
	s.mapFiles()
	s.precompile(0, 0)
	return nil
}

// closeEngines joins the set-up goroutine and closes every tile engine.
func (s *Streamer) closeEngines() {
	s.setup.Wait()
	for _, e := range s.engines {
		e.runner.Close()
	}
	s.engines = map[engineKey]*tileEngine{}
}

// Close releases the engines, the store's file handles and its lock. The
// spill data and checkpoint stay on disk (for resume); call Remove to delete
// them.
func (s *Streamer) Close() error {
	s.closeEngines()
	var err error
	for i, f := range s.files {
		if f != nil {
			if e := f.Close(); e != nil && err == nil {
				err = e
			}
			s.files[i] = nil
		}
	}
	if s.lock != nil {
		if e := s.lock.Close(); e != nil && err == nil {
			err = e
		}
		s.lock = nil
	}
	return err
}

// Remove deletes the spill directory. Call after Close, on success or when
// the run is anonymous (not resumable).
func (s *Streamer) Remove() error {
	return os.RemoveAll(s.o.Dir)
}
