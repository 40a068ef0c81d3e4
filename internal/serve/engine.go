package serve

import (
	"fmt"
	"math"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// Engine is one pre-warmed, reusable execution slot: a compiled runner (with
// its schedule, environments and halo buffers) plus the state it advances.
// The pool leases engines to jobs; a healthy engine is returned to the cache
// afterwards so the next job with the same spec key skips the NewRunner
// compile cost. Engines are not safe for concurrent use — the pool leases
// each to one job at a time.
type Engine interface {
	// Reset loads a fresh job's initial conditions into the engine's
	// state. It is called once before the first Step of every job.
	Reset() error
	// Step advances the simulation by one time step. An error poisons the
	// engine: the job fails (or was canceled) and the pool discards the
	// engine instead of caching it.
	Step() error
	// Abort cancels an in-flight Step from another goroutine through the
	// schedule's barrier-abort path; the pending or next Step returns an
	// error carrying the reason. The engine is poisoned afterwards.
	Abort(reason string)
	// Checksums summarizes the current solution field.
	Checksums() Checksums
	// SetProfiling toggles per-phase runtime profiling for later Steps.
	SetProfiling(on bool)
	// Profile returns the aggregated runtime profile (nil when off).
	Profile() *exec.Profile
	// Info reports compiled-schedule facts the job result surfaces: the
	// effective temporal-blocking factor and the fallback reason when a
	// requested k was dropped to 1.
	Info() EngineInfo
	// Close releases the engine's work teams.
	Close()
}

// EngineInfo is the compiled schedule's effective temporal blocking: KSteps
// as actually compiled, plus the executor's reason when a requested factor
// fell back to 1 — what the mpdata-load silent-fallback gate audits. Workers
// and BlockI are the executed shape: the team size of each island on the
// host, and the (3+1)D block width the schedule compiled (0 when the
// strategy does not block, or when it varies per tile of a streamed run).
type EngineInfo struct {
	KSteps        int    `json:"ksteps"`
	KStepFallback string `json:"kstep_fallback,omitempty"`
	Workers       int    `json:"workers,omitempty"`
	BlockI        int    `json:"block_i,omitempty"`
}

// host is the machine engines execute on. Engines compile for the priced
// UV 2000 reshaped by host().Run: one island per priced socket, the host's
// CPUs shared out over the islands, blocks sized to their private caches.
// Tests substitute fixed hosts.
var host = topology.ThisHost

// EngineFactory builds an engine for a normalized spec. The server's default
// factory compiles the spec's catalog solver; tests substitute deterministic
// or failure-injecting engines.
type EngineFactory func(n NormSpec) (Engine, error)

// Checksums summarizes a solution field so clients can verify runs cheaply.
type Checksums struct {
	// Sum, Min and Max are taken over the solver's final feedback field
	// (psi for mpdata).
	Sum float64 `json:"sum"`
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	// MassDrift is (Sum - initial Sum) / initial Sum — the conservation
	// invariant of MPDATA's donor-cell formulation. Reported for every
	// solver, but a physical invariant only where the scheme conserves the
	// field's sum.
	MassDrift float64 `json:"mass_drift"`
}

// solverEngine is the production engine: a catalog solver's state plus a
// runner compiled for one dispatch unit per Step. No solver-specific code —
// the catalog entry supplies the program, the state, the problem fill and
// the feedback field the checksums summarize.
type solverEngine struct {
	ns     NormSpec
	entry  *solver.Entry
	state  *solver.State
	out    *grid.Field
	runner *exec.Runner
	// written are the state fields a step can change (writtenFields); first
	// holds their problem fill, copied at the first Reset. The fill is a pure
	// function of the engine's key, so a later Reset copies first back
	// instead of recomputing it, and massIn, the fill's sum, is taken once.
	written []*grid.Field
	first   []*grid.Field
	massIn  float64
	synced  bool
	// workers and blockI are the executed shape Info reports.
	workers, blockI int
}

// CheckKSteps verifies a temporal-blocking request would actually compile at
// the requested k for the solver's program — Normalize's feasibility gate,
// which rejects an infeasible k with the executor's own error text.
func (n CacheKey) CheckKSteps() error {
	if n.KSteps <= 1 {
		return nil
	}
	ec, err := n.ExecConfig()
	if err != nil {
		return err
	}
	_, prog, err := n.program()
	if err != nil {
		return err
	}
	return exec.CheckKSteps(ec, &prog.Program, n.Domain)
}

// program resolves the catalog entry and builds its kernel program for the
// key's options.
func (n CacheKey) program() (*solver.Entry, *stencil.KernelProgram, error) {
	entry, err := n.SolverEntry()
	if err != nil {
		return nil, nil, err
	}
	prog, err := entry.NewProgram(n.SolverOptions())
	return entry, prog, err
}

// NewSolverEngine compiles the spec's catalog solver — the pool's default
// factory — on the host's shape (host). The compile cost this pays
// (schedule, environments, halo strips) is exactly what the cache amortizes
// across repeat jobs.
func NewSolverEngine(n NormSpec) (Engine, error) {
	ec, err := n.ExecConfig()
	if err != nil {
		return nil, err
	}
	ec.Machine = host().Run(ec.Machine)
	entry, prog, err := n.program()
	if err != nil {
		return nil, err
	}
	state, err := entry.NewState(n.Domain)
	if err != nil {
		return nil, err
	}
	runner, err := exec.NewRunner(ec, prog, state.Inputs, state.Feedback)
	if err != nil {
		return nil, err
	}
	e := &solverEngine{ns: n, entry: entry, state: state, out: state.Output(), runner: runner,
		written: writtenFields(&prog.Program, state), workers: ec.Machine.Nodes[0].Cores}
	if ec.Strategy != exec.Original {
		e.blockI = exec.ResolveBlockI(ec.Machine, n.Domain, ec.BlockI)
	}
	return e, nil
}

// writtenFields derives from the program which state fields its steps write:
// the feedback field the output is swapped into, plus any step input a stage
// writes. Every other input is only read, so it keeps its first fill for the
// engine's lifetime.
func writtenFields(prog *stencil.Program, st *solver.State) []*grid.Field {
	fields := []*grid.Field{st.Output()}
	for _, s := range prog.Stages {
		if s.Name != st.Feedback && prog.IsStepInput(s.Name) {
			fields = append(fields, st.Inputs[s.Name])
		}
	}
	return fields
}

// Reset writes the solver's standard problem (for mpdata: the Gaussian blob
// in solid-body rotation mpdata-sim uses) into the shared fields and
// re-imports them into the islands' private halo buffers. The same fill is
// what streamed jobs seed their spill stores with, so a streamed job's
// checksums are bit-comparable to a resident run.
//
// Only the first Reset runs the fill; it keeps a copy of the fields a step
// writes, and every later Reset copies those back without allocating — the
// fields no step writes (mpdata's velocities and h) still hold the first fill.
func (e *solverEngine) Reset() error {
	if e.first == nil {
		e.entry.SetProblem(e.state)
		for _, f := range e.written {
			e.first = append(e.first, f.Clone())
		}
		e.massIn = e.out.Sum()
	} else {
		for i, f := range e.written {
			f.CopyFrom(e.first[i])
		}
	}
	// The swap+halo feedback mode keeps private feedback buffers per
	// island; re-import the freshly written shared field (no-op otherwise).
	e.runner.ReloadFeedback()
	e.synced = true
	return nil
}

// Step advances one time step (one alloc-free dispatch of the compiled
// schedule).
func (e *solverEngine) Step() error {
	e.synced = false
	return e.runner.Run()
}

// Abort cancels an in-flight step through the barrier-abort path.
func (e *solverEngine) Abort(reason string) {
	e.runner.Abort(fmt.Sprintf("serve: %s", reason))
}

// Checksums materializes the feedback field (swap+halo mode keeps it in
// private buffers during the step loop) and summarizes it.
func (e *solverEngine) Checksums() Checksums {
	if !e.synced {
		e.runner.SyncFeedback()
		e.synced = true
	}
	// One walk over the field: the sum accumulates in Field.Sum's order (its
	// bits are the streamed engine's and the references'), the extrema ride
	// along.
	var acc grid.SumAccumulator
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range e.out.Data {
		acc.Add(v)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	sum := acc.Value()
	var drift float64
	if e.massIn != 0 {
		drift = (sum - e.massIn) / e.massIn
	}
	return Checksums{Sum: sum, Min: lo, Max: hi, MassDrift: drift}
}

// SetProfiling toggles the runner's per-phase profiler.
func (e *solverEngine) SetProfiling(on bool) {
	if on {
		e.runner.EnableProfile(false)
	} else {
		e.runner.DisableProfile()
	}
}

// Profile returns the runner's aggregated profile (nil when off).
func (e *solverEngine) Profile() *exec.Profile { return e.runner.Profile() }

// Info reports the compiled schedule's effective temporal blocking and the
// executed shape.
func (e *solverEngine) Info() EngineInfo {
	sch := e.runner.Schedule()
	return EngineInfo{KSteps: sch.KSteps(), KStepFallback: sch.KStepFallbackReason(),
		Workers: e.workers, BlockI: e.blockI}
}

// Close releases the runner's work teams.
func (e *solverEngine) Close() { e.runner.Close() }
