package exec

import (
	"errors"
	"fmt"
	"time"

	"islands/internal/grid"
	"islands/internal/sched"
	"islands/internal/stencil"
)

// Runner executes a kernel program with the configured strategy on real
// goroutine work teams. It is the compute backend: every strategy produces
// bit-identical results (verified by tests against the sequential reference),
// differing only in how work is ordered and which cores own it — the
// properties the model backend prices.
//
// At construction the runner compiles the full per-worker execution schedule
// of one time step (see schedule.go); Run's steady-state loop dispatches one
// precompiled closure per team per step and performs no allocations — all
// per-stage synchronization happens at reusable phase barriers inside the
// workers.
type Runner struct {
	plan     *plan
	prog     *stencil.KernelProgram
	sch      *sched.Scheduler
	inputs   map[string]*grid.Field
	feedback string
	// haloEnvs holds one execution environment per plan sweeper, in sweeper
	// order — the order of the halo geometry and of the compiled schedule: a
	// single shared one for Original and Plus31D, one per island, or one
	// per core for core-level sub-islands. Island environments own private
	// stage arrays — the islands' independence is structural, not just
	// scheduled — and in the swap+halo feedback mode additionally a private
	// double-buffered copy of the feedback field (see halo.go).
	haloEnvs []*stencil.Env
	// schedule is the compiled one-step program; stepFns are the per-team
	// worker closures dispatched every step (built once, so the dispatch
	// allocates nothing). With temporal blocking one dispatch advances
	// schedule.ksteps steps: the whole Run.
	schedule *Schedule
	stepFns  []func(worker int)
	// OnStepEnd, when set, is invoked after every completed time step
	// (outside any parallel region, with all outputs published). Hooks
	// may mutate the step inputs — e.g. update time-dependent velocity
	// fields — or record diagnostics. Under temporal blocking the hook
	// fires once, after the block, with the index of its last step — inner
	// steps are uninterruptible by construction (that is the point of the
	// block), so per-step hooks and KSteps > 1 are mutually exclusive
	// semantics the driver must choose between.
	OnStepEnd func(step int)
	// halo is the swap+halo exchange geometry (nil outside that mode), and
	// swapPairs precomputes each environment's (feedback, output) field
	// pair so the per-step driver swap allocates nothing. fbStale marks the
	// shared feedback grid as lagging the private buffers (cleared by
	// SyncFeedback).
	halo      *haloGeom
	swapPairs [][2]*grid.Field
	fbStale   bool
	// scratch is every environment's stage outputs but the program output
	// (FieldCount.Scratch), which BindScratch may point at an arena; unbound
	// marks them without storage, and Run refuses to step.
	scratch []*grid.Field
	unbound bool
	// prof is the runtime profiler state (nil = profiling off, the
	// default; see profile.go). Set via EnableProfile, never during Run.
	prof *profiler
	// err is the sticky failure of a previous Run: once a worker has
	// failed, the schedule's barriers are poisoned and the work teams
	// hold a recorded panic, so the runner cannot execute further steps.
	err error
}

// FieldCount is the domain-sized fields a runner holds, split by lifetime.
type FieldCount struct {
	// State carries values from one step to the next: the step inputs, each
	// environment's output stage (the feedback swaps with it) and, on the
	// island strategies, each environment's private feedback buffer.
	State int
	// Scratch is every other stage output of every environment. A step
	// writes each scratch cell before it reads it, so runners that never run
	// at once can share one set of scratch storage.
	Scratch int
}

// Total is every field the runner holds.
func (c FieldCount) Total() int { return c.State + c.Scratch }

// EngineFields counts the fields a runner of cfg holds for prog. It is the
// one count of an engine's memory: the streaming executor sizes its tile
// engines' arena and StreamPlan.ResidentBytes prices it, a server sizes its
// slot arenas from Scratch and admits a resident job by Total. cfg must carry
// the machine the runner executes on — the environment count follows its
// cores. Island runners narrower than the step halo fall back to the copy
// publish and hold no private feedback buffers, so State is an upper bound
// there.
func EngineFields(cfg Config, prog *stencil.Program) FieldCount {
	envs, private := 1, 0
	if cfg.Strategy == IslandsOfCores {
		envs = cfg.Machine.NumNodes()
		if cfg.CoreIslands {
			envs = cfg.Machine.TotalCores()
		}
		private = envs
	}
	return FieldCount{State: len(prog.StepInputs) + envs + private, Scratch: envs * (len(prog.Stages) - 1)}
}

// errUnbound is Run's answer while the runner's scratch has no storage.
var errUnbound = errors.New("exec: runner scratch is unbound (BindScratch first)")

// NewRunner prepares an execution. The feedback name selects the step input
// that receives the program output after every step (psi for MPDATA).
func NewRunner(cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string) (*Runner, error) {
	return NewRunnerIn(nil, cfg, prog, inputs, feedback)
}

// NewRunnerIn is NewRunner with every field the runner allocates — each
// environment's stage arrays and private feedback buffer — taken from arena
// (nil = the heap). Runners built in one rewound arena share its storage and
// must never run concurrently.
func NewRunnerIn(arena *grid.Arena, cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string) (*Runner, error) {
	return newRunner(arena, arena.NewField, cfg, prog, inputs, feedback)
}

// NewUnboundRunner is NewRunner without scratch storage: the runner holds its
// state (FieldCount.State) on the heap and runs only while BindScratch has
// lent it an arena's storage for its scratch.
func NewUnboundRunner(cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string) (*Runner, error) {
	r, err := newRunner(nil, grid.NewUnboundField, cfg, prog, inputs, feedback)
	if err == nil {
		r.unbound = len(r.scratch) > 0
	}
	return r, err
}

// newRunner builds a runner whose state fields come from arena and whose
// scratch fields from scratch.
func newRunner(arena *grid.Arena, scratch func(string, grid.Size) *grid.Field, cfg Config, prog *stencil.KernelProgram, inputs map[string]*grid.Field, feedback string) (*Runner, error) {
	fb, ok := inputs[feedback]
	if !ok {
		return nil, fmt.Errorf("exec: feedback input %q not provided", feedback)
	}
	p, err := newPlan(cfg, &prog.Program, fb.Size)
	if err != nil {
		return nil, err
	}
	if p.ksteps > 1 && feedback != p.prog.Feedback {
		// The plan's k-step geometry was built for the program's declared
		// feedback input; running with a different one falls back loudly.
		p.kstepReason = fmt.Sprintf("feedback input %q differs from the program's declared feedback %q",
			feedback, p.prog.Feedback)
		p.ksteps = 1
		p.khalo = nil
		p.spansK = p.spansK[:1]
		if cfg.Keep != (grid.Region{}) && p.windowReason == "" && cfg.Steps > 1 {
			// The plan honoured the window on the strength of the k-block
			// this override just took away.
			return nil, fmt.Errorf("exec: Config.Keep with %d steps needs the program's declared feedback input %q, got %q",
				cfg.Steps, p.prog.Feedback, feedback)
		}
	}
	r := &Runner{
		plan:     p,
		prog:     prog,
		sch:      sched.New(cfg.Machine),
		inputs:   inputs,
		feedback: feedback,
	}
	// Decide the private environments' feedback mode before building them:
	// swap+halo gives every one a private double-buffered feedback field
	// (initialized from the shared grid), published per step by an O(1)
	// buffer swap plus halo-strip pulls. Infeasible geometries (parts
	// narrower than the step halo) fall back to the whole-part publish
	// copies, recording the reason.
	var halo *haloGeom
	var haloReason string
	if !p.sharedEnv() {
		if p.ksteps > 1 {
			// k-step execution always runs in swap+halo mode, with the
			// strips and re-import boxes widened to the k-step extent
			// (planKSteps falls back to ksteps=1 when that is infeasible).
			halo = p.khalo
		} else {
			halo, haloReason = haloGeometry(p.owned(), p.analysis.InputExtents[feedback], p.domain, cfg.Boundary)
		}
	}
	for range p.sweepers {
		// The step-input binding of one environment: the shared fields,
		// with the feedback input replaced by a private clone in swap+halo
		// mode.
		envInputs := inputs
		if halo != nil {
			envInputs = make(map[string]*grid.Field, len(inputs))
			for k, v := range inputs {
				envInputs[k] = v
			}
			priv := arena.NewField(fb.Name(), fb.Size)
			priv.CopyFrom(fb)
			envInputs[feedback] = priv
		}
		env, err := stencil.NewEnvWith(&prog.Program, fb.Size, envInputs, func(s int) *grid.Field {
			name := prog.Stages[s].Name
			if name == prog.Output {
				return arena.NewField(name, fb.Size)
			}
			f := scratch(name, fb.Size)
			r.scratch = append(r.scratch, f)
			return f
		})
		if err != nil {
			r.Close()
			return nil, err
		}
		env.BC = cfg.Boundary
		r.haloEnvs = append(r.haloEnvs, env)
		if halo != nil {
			r.swapPairs = append(r.swapPairs, [2]*grid.Field{env.Field(feedback), env.Field(prog.Output)})
		}
	}
	r.halo = halo
	r.schedule, err = compileSchedule(p, prog, r.haloEnvs, fb, feedback, halo, haloReason)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.stepFns = make([]func(worker int), len(r.sch.Teams))
	for t := range r.sch.Teams {
		t := t
		items := r.schedule.items[t]
		r.stepFns[t] = func(w int) { r.runWorker(t, w, items[w]) }
	}
	return r, nil
}

// runWorker executes one worker's compiled step program — the plain
// alloc-free walk by default, the instrumented walk when profiling is on. A
// panicking kernel poisons the schedule's barriers so the other workers
// unwind instead of waiting forever at the next phase; the original panic
// value is recorded and converted to an error for the driver by Run.
func (r *Runner) runWorker(t, w int, items []schedItem) {
	defer func() {
		if p := recover(); p != nil {
			r.schedule.fail(p)
			panic(p)
		}
	}()
	if p := r.prof; p != nil {
		runItemsProfiled(items, p.workers[t][w], p.trace, p.epoch)
		return
	}
	runItems(items)
}

// Close releases the runner's work teams.
func (r *Runner) Close() { r.sch.Close() }

// BindScratch points the runner's scratch fields at a's storage (Arena.Bind:
// grown when too small, never zeroed), where they stay until the next
// BindScratch or UnbindScratch. Every step writes a scratch cell before it
// reads it, so the runner computes the same bits whatever a held before, and
// runners bound to one arena must never run concurrently. Kernels look their
// fields up on every call, so the compiled schedule stands.
func (r *Runner) BindScratch(a *grid.Arena) {
	a.Bind(r.scratch)
	r.unbound = false
}

// UnbindScratch drops the runner's hold on its scratch storage, leaving it
// only its state; Run fails until the next BindScratch.
func (r *Runner) UnbindScratch() {
	for _, f := range r.scratch {
		f.Data = nil
	}
	r.unbound = len(r.scratch) > 0
}

// Plan exposes the execution geometry (islands, blocks, spans) for
// inspection by tests and reports.
func (r *Runner) Plan() *PlanInfo {
	info := &PlanInfo{Parts: r.plan.parts, Blocks: r.plan.blocks}
	_, info.OutputCells = r.plan.runCells()
	return info
}

// PlanInfo is the externally visible execution geometry.
type PlanInfo struct {
	Parts  []grid.Region
	Blocks [][]grid.Region
	// OutputCells is the cells of the program's output one Run computes: the
	// owned cells once per step plus the redundant growth of the trapezoids
	// under the earlier inner steps of each k-block.
	OutputCells int64
}

// Schedule exposes the compiled one-step execution schedule.
func (r *Runner) Schedule() *Schedule { return r.schedule }

// Run advances the program by the configured number of steps. Each step is
// one alloc-free dispatch of the compiled schedule; feedback publication is
// a buffer swap for the shared-environment strategies (Original, Plus31D),
// and for the island strategies either the swap+halo exchange (per-island
// private buffer swaps plus precompiled halo-strip copies) or, on fallback,
// whole-part region copies into the shared feedback grid.
//
// In the swap+halo mode the shared feedback input is not materialized
// during the steady-state loop: the fresh values live in the islands'
// private buffers until SyncFeedback copies them out. Run handles this
// around OnStepEnd automatically (the hook observes and may mutate the
// shared inputs, so feedback is synced before and reloaded after each
// invocation); callers that read the feedback field directly after Run must
// call SyncFeedback first. Simulation.Run does.
//
// A panic in any worker (a failing kernel) is converted into a returned
// error: the schedule's barriers are aborted so every teammate unwinds and
// joins, and the error carries the original kernel panic rather than the
// secondary "barrier aborted" panics of the unwinding workers. The failure
// is sticky — the teams and barriers are poisoned, so every later Run
// returns the same error without executing.
func (r *Runner) Run() (err error) {
	if r.err != nil {
		return r.err
	}
	if r.unbound {
		return errUnbound
	}
	defer func() {
		if p := recover(); p != nil {
			// A recorded schedule failure means a worker died: return
			// it as an error, preferring the original kernel panic
			// over the secondary panics of the unwinding workers. A
			// panic with no recorded failure is a driver-side bug
			// (e.g. an OnStepEnd hook) and keeps propagating.
			f := r.schedule.firstFailure()
			if f == nil {
				panic(p)
			}
			r.err = fmt.Errorf("exec: schedule failed: %v", f)
			err = r.err
		}
	}()
	// One loop iteration dispatches one compiled program walk: a single time
	// step without temporal blocking, the whole Run's k-block of
	// schedule.ksteps steps with it. The feedback publication below runs
	// once per walk — the inner steps of a block swap island-locally inside
	// the schedule itself.
	for done, n := 0, r.schedule.ksteps; done < r.plan.cfg.Steps; {
		var t0 time.Time
		if r.prof != nil {
			t0 = time.Now()
		}
		r.sch.RunFns(r.stepFns)
		switch r.schedule.mode {
		case FeedbackSwap:
			grid.SwapData(r.inputs[r.feedback], r.haloEnvs[0].Field(r.prog.Output))
		case FeedbackSwapHalo:
			// The workers have already pulled the halo strips into each
			// island's output buffer (after the global join, so every
			// source part was fresh); the O(islands) pointer swaps below
			// complete the publication without touching cell data.
			for i := range r.swapPairs {
				grid.SwapData(r.swapPairs[i][0], r.swapPairs[i][1])
			}
			r.fbStale = true
		}
		done += n
		if p := r.prof; p != nil {
			p.steps += n
			p.wall += time.Since(t0)
		}
		if r.OnStepEnd != nil {
			r.SyncFeedback()
			r.OnStepEnd(done - 1)
			r.ReloadFeedback()
		}
	}
	return nil
}

// Abort poisons the runner's compiled schedule from outside the step loop:
// the given reason is recorded as the schedule's first failure and every
// phase barrier is aborted, so a concurrently executing Run unwinds promptly
// and returns an error carrying the reason instead of completing its
// remaining steps. It is the external cancellation hook for long-running
// drivers (job deadlines and client cancellation in servers); like a worker
// failure, the abort is sticky — the teams and barriers stay poisoned and the
// runner cannot execute further steps, so callers should Close and rebuild.
// Abort is safe to call from any goroutine, including concurrently with Run.
//
// If no step is in flight (or the in-flight step's workers have already
// passed their last barrier), the current Run may still return nil; the
// poisoning then surfaces on the next Run. Callers that must distinguish
// cancellation from completion should therefore check their own cancellation
// signal after Run returns rather than rely on the error alone.
func (r *Runner) Abort(reason any) {
	r.schedule.fail(reason)
}

// SyncFeedback materializes the feedback input after swap+halo steps: every
// island environment's owned part is copied from its private buffer into
// the shared feedback field. It is a no-op in the other feedback modes and
// when the shared field is already current, so it is safe (and cheap) to
// call unconditionally. Callers that read the feedback field directly after
// Run must call it; Simulation.Run does so on behalf of its State.
func (r *Runner) SyncFeedback() {
	if r.schedule == nil || r.schedule.mode != FeedbackSwapHalo || !r.fbStale {
		return
	}
	fb := r.inputs[r.feedback]
	for e, env := range r.haloEnvs {
		if own := r.halo.owned[e]; !own.Empty() {
			grid.CopyRegion(fb, env.Field(r.feedback), own)
		}
	}
	r.fbStale = false
}

// ReloadFeedback re-imports the shared feedback field into the islands'
// private buffers (each environment's part plus halo), for callers that
// mutate the feedback input between steps — Run invokes it after every
// OnStepEnd hook, and direct Runner users should call it after writing the
// feedback field between Run calls. No-op outside the swap+halo mode.
func (r *Runner) ReloadFeedback() {
	if r.schedule == nil || r.schedule.mode != FeedbackSwapHalo {
		return
	}
	fb := r.inputs[r.feedback]
	for e, env := range r.haloEnvs {
		priv := env.Field(r.feedback)
		for _, box := range r.halo.boxes[e] {
			grid.CopyRegion(priv, fb, box)
		}
	}
	r.fbStale = false
}
