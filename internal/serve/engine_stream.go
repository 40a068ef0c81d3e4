package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"islands/internal/exec"
	"islands/internal/stream"
	"islands/internal/tune"
)

// This file is the serving side of out-of-core tile streaming
// (docs/STREAMING.md): a streamed job's engine is not a whole-domain runner
// but a stream.Streamer driving disk-backed tiles through resident tile
// engines. The residency — tile width times temporal factor k — is chosen by
// tune.PickResidency under the job's memory budget, priced with the server's
// disk-bandwidth estimate (fed by durable stores only); named stores (spec
// stream_id) are durable, survive the job and resume from their checkpoint on
// resubmission.

// TileProgress is a streamed job's tile-granular progress report.
type TileProgress struct {
	// Sweep/Sweeps and Tile/Tiles locate the completed residency.
	Sweep, Sweeps int
	Tile, Tiles   int
	// StepsDone counts globally durable steps (whole sweeps only).
	StepsDone int
}

// StreamReport is the out-of-core summary embedded in a streamed job's
// result.
type StreamReport struct {
	// Residency names the picked configuration advisor-style ("resident",
	// "stream w12k2", or "checkpointed w12k2" when a named store's
	// recorded residency overrode the picker).
	Residency string `json:"residency"`
	// TilePlanes and K are the residency: owned i-planes per tile,
	// advanced K steps per visit.
	TilePlanes int `json:"tile_planes"`
	K          int `json:"k"`
	// Tiles and Sweeps are the plan shape; TilesDone counts residencies
	// this job completed (fewer than Tiles*Sweeps after a resume).
	Tiles     int `json:"tiles"`
	Sweeps    int `json:"sweeps"`
	TilesDone int `json:"tiles_done"`
	// BudgetMB is the effective memory budget the residency satisfies.
	BudgetMB int `json:"budget_mb"`
	// BytesRead/BytesWritten is this job's disk traffic.
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// OverlapEfficiency is the measured fraction of wall time not lost to
	// I/O stalls (1 = streaming at in-memory speed); DiskBWBytes the
	// observed store throughput.
	OverlapEfficiency float64 `json:"overlap_efficiency"`
	DiskBWBytes       float64 `json:"disk_bw_bytes,omitempty"`
	Mmap              bool    `json:"mmap"`
	// ResumedSteps counts steps already durable when the store opened
	// (nonzero only when a named store resumed).
	ResumedSteps int `json:"resumed_steps,omitempty"`
	// StoreDir is the durable store's directory (named stores only).
	StoreDir string `json:"store_dir,omitempty"`
}

// StreamEngine is the optional interface streamed engines add on top of
// Engine: the dispatch loop advances whole sweeps until Done and reads
// tile-granular progress through the sink.
type StreamEngine interface {
	Engine
	// Done reports that every sweep is durable (Step becomes a no-op).
	Done() bool
	// StepsDone counts globally durable steps, resumed ones included.
	StepsDone() int
	// SetProgress installs the tile-progress sink (safe mid-run).
	SetProgress(func(TileProgress))
	// Report summarizes the run for the job result (nil before Reset).
	Report() *StreamReport
	// Scan reads the final field's summary from the completed store, for
	// Checksums to return; an error fails the job.
	Scan() error
}

// streamEngine adapts a stream.Streamer to the Engine contract. It is never
// returned to the pool cache (the store's checkpoint, not a warm engine, is
// what makes repeat jobs cheap), so Close always tears the tile engines down
// and removes anonymous stores.
type streamEngine struct {
	srv *Server
	ns  NormSpec

	dir   string
	named bool

	streamer *stream.Streamer
	report   *StreamReport
	// sums is the final field's summary (see Scan).
	sums Checksums

	mu   sync.Mutex
	sink func(TileProgress)
}

// newStreamEngine builds the engine shell; the store and streamer are
// created in Reset (the Engine contract's per-job initialization point).
func newStreamEngine(srv *Server, ns NormSpec) (Engine, error) {
	root := srv.spillDir()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("serve: stream spill root: %w", err)
	}
	e := &streamEngine{srv: srv, ns: ns, named: ns.StreamID != ""}
	if e.named {
		e.dir = filepath.Join(root, "stream-"+ns.StreamID)
	} else {
		dir, err := os.MkdirTemp(root, "job-")
		if err != nil {
			return nil, fmt.Errorf("serve: stream spill dir: %w", err)
		}
		e.dir = dir
	}
	return e, nil
}

// budgetMB resolves the job's effective memory budget.
func (e *streamEngine) budgetMB() int {
	if e.ns.MemoryBudgetMB > 0 {
		return e.ns.MemoryBudgetMB
	}
	return e.srv.streamBudgetMB()
}

// OpenStream opens the streamed run of a spec: the one place a residency is
// chosen and mapped onto stream.Options. The caller supplies what is its own
// in o (Dir, Resume, Progress); the engine configuration, solver program and
// residency come from ns. A checkpoint found in o.Dir under o.Resume keeps its
// recorded residency (resume validation rejects changed geometry) and the
// returned Residency is nil; that residency is priced as the picker prices
// one, and a budgetMB it overflows fails the open with a diagnostic.
// Otherwise tune.PickResidency chooses under budgetMB, priced at diskBW
// bytes/s (0 = the model's default), and a domain that fits the budget whole
// streams as one degenerate tile (k = the whole run) rather than through a
// distinct code path. The pick is priced on the UV 2000; the tile engines
// then run on the host's shape (host).
func OpenStream(ns NormSpec, o stream.Options, budgetMB int, diskBW float64) (*stream.Streamer, *tune.Residency, error) {
	cfg, err := ns.ExecConfig()
	if err != nil {
		return nil, nil, err
	}
	// One program build serves the residency pick and the streamer.
	_, prog, err := ns.program()
	if err != nil {
		return nil, nil, err
	}
	var picked *tune.Residency
	var tilePlanes, k int
	stored := false
	if o.Resume {
		tilePlanes, k, stored = stream.StoredResidency(o.Dir)
	}
	if stored {
		// The residency cannot change mid-run, so a budget it overflows
		// fails the job rather than being ignored.
		need, err := tune.ResidentBytes(cfg.Machine, &prog.Program, ClassOf(ns), tune.KnobsOf(cfg, ns.Domain), tilePlanes, k)
		if err != nil {
			return nil, nil, err
		}
		if need > float64(int64(budgetMB)<<20) {
			return nil, nil, fmt.Errorf("checkpointed residency w%dk%d needs %.1f MiB, over the %d MiB budget (a resumed store keeps its residency)",
				tilePlanes, k, need/(1<<20), budgetMB)
		}
	} else {
		picked, err = tune.PickResidency(cfg.Machine, &prog.Program, ClassOf(ns), tune.KnobsOf(cfg, ns.Domain), ns.Steps, int64(budgetMB)<<20, diskBW)
		if err != nil {
			return nil, nil, fmt.Errorf("no streaming residency under %d MiB: %w", budgetMB, err)
		}
		tilePlanes, k = picked.TilePlanes, picked.K
		if picked.Resident {
			tilePlanes, k = 0, ns.Steps
		}
	}
	cfg.Machine = host().Run(cfg.Machine)
	cfg.Steps = ns.Steps
	cfg.KSteps = k
	o.Exec, o.Domain, o.Program, o.TilePlanes = cfg, ns.Domain, prog, tilePlanes
	o.Solver, o.IORD, o.Unlimited = ns.Solver, ns.IORD, ns.Unlimited
	st, err := stream.New(o)
	return st, picked, err
}

// Reset opens (or resumes) the spill store and prepares the streamer.
func (e *streamEngine) Reset() error {
	if e.streamer != nil {
		// Engines are never cache-reused, so a second Reset means the
		// dispatch retried; start the streamer over from the store.
		_ = e.streamer.Close()
		e.streamer = nil
	}
	st, picked, err := OpenStream(e.ns, stream.Options{
		Dir:    e.dir,
		Resume: e.named,
		Progress: func(p stream.Progress) {
			e.mu.Lock()
			sink := e.sink
			e.mu.Unlock()
			if sink != nil {
				sink(TileProgress{
					Sweep: p.Sweep, Sweeps: p.Sweeps,
					Tile: p.Tile, Tiles: p.Tiles,
					StepsDone: p.StepsDone,
				})
			}
		},
	}, e.budgetMB(), e.srv.diskBWEstimate())
	if err != nil {
		return err
	}
	e.streamer = st
	plan := st.Plan()
	e.report = &StreamReport{
		Residency:    fmt.Sprintf("checkpointed w%dk%d", plan.TilePlanes, plan.K),
		TilePlanes:   plan.TilePlanes,
		K:            plan.K,
		Tiles:        len(plan.Tiles),
		Sweeps:       plan.Sweeps,
		BudgetMB:     e.budgetMB(),
		ResumedSteps: st.ResumedSteps(),
	}
	if picked != nil {
		e.report.Residency = picked.Label
	}
	if e.named {
		e.report.StoreDir = e.dir
	}
	return nil
}

// Step advances one whole sweep (every tile one residency); a no-op once
// Done.
func (e *streamEngine) Step() error {
	if e.streamer.Done() {
		return nil
	}
	return e.streamer.RunSweep()
}

// scanStream reads the final field's checksums from a completed store. It is
// a variable so that tests can inject a failing scan.
var scanStream = (*stream.Streamer).Checksums

// Scan records the final field's checksums from the completed store. The sum
// is computed with the same compensated accumulator and visitation order as a
// resident field, so a streamed job's checksums are bit-identical to the
// resident run's.
func (e *streamEngine) Scan() error {
	ck, err := scanStream(e.streamer)
	if err != nil {
		return fmt.Errorf("serve: final checksum scan: %w", err)
	}
	var drift float64
	if ck.MassIn != 0 {
		drift = (ck.Sum - ck.MassIn) / ck.MassIn
	}
	e.sums = Checksums{Sum: ck.Sum, Min: ck.Min, Max: ck.Max, MassDrift: drift}
	return nil
}

// Done reports whether every sweep is durable.
func (e *streamEngine) Done() bool { return e.streamer.Done() }

// StepsDone counts globally durable steps (resumed ones included).
func (e *streamEngine) StepsDone() int { return e.streamer.StepsDone() }

// Abort cancels the in-flight sweep through the streamer's abort path.
func (e *streamEngine) Abort(reason string) {
	if e.streamer != nil {
		e.streamer.Abort(fmt.Sprintf("serve: %s", reason))
	}
}

// SetProgress installs the tile-progress sink.
func (e *streamEngine) SetProgress(f func(TileProgress)) {
	e.mu.Lock()
	e.sink = f
	e.mu.Unlock()
}

// Report finalizes and returns the stream summary.
func (e *streamEngine) Report() *StreamReport {
	if e.report == nil {
		return nil
	}
	st := e.streamer.Stats()
	e.report.TilesDone = st.TilesDone
	e.report.BytesRead = st.BytesRead
	e.report.BytesWritten = st.BytesWritten
	e.report.OverlapEfficiency = st.OverlapEfficiency()
	e.report.DiskBWBytes = st.DiskBW()
	e.report.Mmap = st.Mmap
	return e.report
}

// Checksums returns the final field's summary recorded by Scan.
func (e *streamEngine) Checksums() Checksums { return e.sums }

// SetProfiling is a no-op: streamed jobs report overlap efficiency and disk
// throughput through StreamReport instead of the per-phase profile.
func (e *streamEngine) SetProfiling(bool) {}

// Profile returns nil (see SetProfiling).
func (e *streamEngine) Profile() *exec.Profile { return nil }

// Info reports the residency k as the effective temporal blocking, and the
// tile engines' team size (their block width varies with the tile).
func (e *streamEngine) Info() EngineInfo {
	if e.streamer == nil {
		return EngineInfo{}
	}
	return EngineInfo{KSteps: e.streamer.Plan().K, Workers: host().Workers(e.ns.Processors)}
}

// Close tears the tile engines down; anonymous stores are removed, named
// ones kept on disk for resumption.
func (e *streamEngine) Close() {
	if e.streamer != nil {
		// Close before the removal below, always: it stops the tile engines'
		// workers and unmaps the plane files, which deleting the directory
		// under a live streamer does not.
		_ = e.streamer.Close()
		e.streamer = nil
	}
	if !e.named {
		_ = os.RemoveAll(e.dir)
	}
}
