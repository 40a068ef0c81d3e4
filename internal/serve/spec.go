// Package serve is the simulation serving subsystem: a pool of pre-warmed,
// reusable runner slots (compiled execution schedules and private halo
// buffers are cached per spec key, so repeat jobs skip the NewRunner compile
// cost), an admission-controlled FIFO job queue with backpressure, and the
// HTTP API served by cmd/mpdata-serve. The paper's discipline — islands are
// independent within a step and meet only at one barrier — maps onto the
// server shape: concurrent jobs are islands of work sharing a bounded slot
// pool, meeting only at the admission queue.
package serve

import (
	"fmt"
	"strings"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/solver"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// Validation bounds of Normalize: absurd requests are rejected with a
// diagnostic at the spec boundary instead of reaching the allocator or
// panicking deep inside NewRunner.
const (
	// MaxGridCells bounds the domain a resident (in-memory) job may claim;
	// larger domains are rejected with an *ErrGridTooLarge pointing at the
	// streamed job class.
	MaxGridCells = int64(1) << 31
	// MaxStreamCells bounds the domain of a streamed (out-of-core) job —
	// the spill store still has to fit on disk.
	MaxStreamCells = int64(1) << 40
	// MaxSteps bounds the accepted step count of one job.
	MaxSteps = 1_000_000
	// MaxProcessors is the simulated UV 2000's socket count.
	MaxProcessors = 14
	// DefaultProcessors is the island count of a spec that leaves
	// processors unset.
	DefaultProcessors = 2
)

// ErrGridTooLarge rejects a domain over its job class's cell bound. The
// server maps it to HTTP 413; for a resident job the message names the
// streamed job class, which accepts domains up to MaxStreamCells.
type ErrGridTooLarge struct {
	// Grid is the spec's grid string verbatim.
	Grid string
	// Cells and Limit are the requested and permitted cell counts.
	Cells, Limit int64
	// Streamed reports which class's bound was exceeded.
	Streamed bool
}

func (e *ErrGridTooLarge) Error() string {
	cells := fmt.Sprintf("%d cells", e.Cells)
	if e.Cells < 0 {
		cells = "cell count overflows"
	}
	if e.Streamed {
		return fmt.Sprintf("grid %s (%s) exceeds the streamed limit of %d cells", e.Grid, cells, e.Limit)
	}
	return fmt.Sprintf(`grid %s (%s) exceeds the resident limit of %d cells; resubmit with "streamed": true (and a memory_budget_mb) to run it out of core`, e.Grid, cells, e.Limit)
}

// Spec describes one run: the wire format of POST /v1/jobs, and what
// mpdata-sim builds from its flags. The zero value of every optional field
// selects the documented default.
type Spec struct {
	// Grid is the domain size as "NIxNJxNK" (e.g. "128x64x16"). Required.
	Grid string `json:"grid"`
	// Solver names the stencil program to run, one of the catalog entries
	// (docs/SOLVERS.md; "" = mpdata). Solvers with a k-axis component
	// packing constrain NK — the spec is rejected when the grid violates
	// the solver's domain check.
	Solver string `json:"solver,omitempty"`
	// Steps is the number of time steps (1..MaxSteps). Required.
	Steps int `json:"steps"`
	// Strategy is "original", "3+1d" or "islands" ("" = islands).
	Strategy string `json:"strategy,omitempty"`
	// Processors is the island count (1..14, 0 = 2): the priced UV 2000's
	// socket count, and one work team each on the host, whose CPUs are
	// shared out over the teams.
	Processors int `json:"processors,omitempty"`
	// Placement is "serial", "parallel" or "interleaved" ("" = parallel).
	Placement string `json:"placement,omitempty"`
	// Variant is the 1D island mapping dimension, "A" or "B" ("" = A).
	Variant string `json:"variant,omitempty"`
	// Boundary is "clamp" or "periodic" ("" = clamp).
	Boundary string `json:"boundary,omitempty"`
	// CoreIslands applies the islands approach inside every island (§6).
	CoreIslands bool `json:"core_islands,omitempty"`
	// KSteps temporally blocks the island strategies: islands advance
	// KSteps full time steps on private buffers between global joins
	// (0 or 1 = step at a time). Requires the islands strategy and a
	// partition wide enough to carry the k-step halo — an infeasible k is
	// rejected with the executor's fallback reason rather than silently
	// running at k=1. A served job also needs a steps count divisible by
	// KSteps (Admit).
	KSteps int `json:"ksteps,omitempty"`
	// IORD is the MPDATA order, 1..4 (0 = the paper's default of 2).
	IORD int `json:"iord,omitempty"`
	// Unlimited disables the non-oscillatory flux limiter.
	Unlimited bool `json:"unlimited,omitempty"`
	// BlockI overrides the (3+1)D block width (0 = size from cache).
	BlockI int `json:"block_i,omitempty"`
	// Pin opts the job out of autotuning: it runs exactly as specified
	// even when the server's tuner knows a faster configuration for the
	// same problem class (docs/TUNING.md). No effect without a tuner.
	Pin bool `json:"pin,omitempty"`
	// Profile embeds the per-phase runtime breakdown (the same table
	// mpdata-sim -profile prints) in the job result.
	Profile bool `json:"profile,omitempty"`
	// TimeoutMs is the job deadline in milliseconds, counted from
	// submission (covers queue wait). 0 means no deadline.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Streamed runs the job out of core (docs/STREAMING.md): the domain is
	// cut into disk-backed tiles streamed through a resident engine under
	// MemoryBudgetMB, so grids up to MaxStreamCells are accepted. The
	// residency (tile width and temporal factor k) is chosen by the cost
	// model, so ksteps must be left unset.
	Streamed bool `json:"streamed,omitempty"`
	// MemoryBudgetMB caps a streamed job's resident footprint in MiB
	// (0 = the server's default budget). Ignored for resident jobs.
	MemoryBudgetMB int `json:"memory_budget_mb,omitempty"`
	// StreamID names a durable spill store for a streamed job. A job
	// resubmitted with the same StreamID resumes from the store's
	// checkpoint (a kill loses at most one tile); anonymous streamed jobs
	// get a private store removed when they finish.
	StreamID string `json:"stream_id,omitempty"`
}

// NormSpec is a validated, fully defaulted spec in the executor's types: the
// identity of the engine that runs it, plus the fields that do not shape an
// engine.
type NormSpec struct {
	CacheKey
	Steps     int
	Pin       bool
	Profile   bool
	TimeoutMs int
}

// ParseGrid parses "NIxNJxNK", rejecting non-positive extents and products
// over MaxStreamCells (the largest any job class accepts) with a typed
// *ErrGridTooLarge. The tighter resident bound is applied by Normalize, which
// knows whether the job is streamed.
func ParseGrid(s string) (grid.Size, error) {
	var ni, nj, nk int
	var tail string
	in := strings.ToLower(strings.TrimSpace(s))
	if n, err := fmt.Sscanf(in, "%dx%dx%d%s", &ni, &nj, &nk, &tail); (err != nil && n < 3) || tail != "" {
		return grid.Size{}, fmt.Errorf("grid must look like 128x64x16, got %q", s)
	}
	sz := grid.Sz(ni, nj, nk)
	if !sz.Valid() {
		return grid.Size{}, fmt.Errorf("grid extents must be positive: %s", s)
	}
	// Bound each extent before multiplying so the product cannot overflow.
	if int64(ni) > MaxStreamCells || int64(nj) > MaxStreamCells || int64(nk) > MaxStreamCells ||
		int64(ni)*int64(nj) > MaxStreamCells || int64(ni)*int64(nj)*int64(nk) > MaxStreamCells {
		cells := int64(-1) // overflowed past any representable product
		if int64(ni) <= MaxStreamCells && int64(nj) <= MaxStreamCells && int64(ni)*int64(nj) <= MaxStreamCells {
			cells = int64(ni) * int64(nj) * int64(nk)
		}
		return grid.Size{}, &ErrGridTooLarge{Grid: s, Cells: cells, Limit: MaxStreamCells, Streamed: true}
	}
	return sz, nil
}

// The spec's enum fields by name, matched case-insensitively after trimming;
// "" is each field's default.
var (
	strategies = map[string]exec.Strategy{
		"original": exec.Original,
		"3+1d":     exec.Plus31D, "(3+1)d": exec.Plus31D, "blocked": exec.Plus31D,
		"islands": exec.IslandsOfCores, "islands-of-cores": exec.IslandsOfCores, "": exec.IslandsOfCores,
	}
	placements = map[string]grid.PlacementPolicy{
		"serial": grid.FirstTouchSerial, "first-touch-serial": grid.FirstTouchSerial,
		"parallel": grid.FirstTouchParallel, "first-touch": grid.FirstTouchParallel,
		"first-touch-parallel": grid.FirstTouchParallel, "": grid.FirstTouchParallel,
		"interleaved": grid.Interleaved,
	}
	variants   = map[string]decomp.Variant{"a": decomp.VariantA, "": decomp.VariantA, "b": decomp.VariantB}
	boundaries = map[string]stencil.Boundary{"clamp": stencil.Clamp, "": stencil.Clamp, "periodic": stencil.Periodic}
)

// parseName resolves one enum field of a spec; hint lists the accepted names.
func parseName[T any](field, s, hint string, names map[string]T) (T, error) {
	v, ok := names[strings.ToLower(strings.TrimSpace(s))]
	if !ok {
		return v, fmt.Errorf("unknown %s %q (%s)", field, s, hint)
	}
	return v, nil
}

// ParseStrategy maps the spec's strategy names (and the CLI aliases) to the
// executor's enum. An empty string selects the islands strategy.
func ParseStrategy(s string) (exec.Strategy, error) {
	return parseName("strategy", s, "original, 3+1d, islands", strategies)
}

// Normalize validates the spec and resolves every field to the executor's
// types, applying the documented defaults. It is the only validator of a run:
// mpdata-sim, the server, the router and the load generator all reject a bad
// spec here, with the same diagnostic.
func (s Spec) Normalize() (NormSpec, error) {
	var n NormSpec
	var err error
	if n.Domain, err = ParseGrid(s.Grid); err != nil {
		return n, err
	}
	entry, err := solver.Lookup(s.Solver)
	if err != nil {
		return n, err
	}
	n.Solver = entry.Name
	if entry.CheckDomain != nil {
		if err := entry.CheckDomain(n.Domain); err != nil {
			return n, err
		}
	}
	n.Streamed = s.Streamed
	if n.Streamed && !entry.Streamable() {
		return n, fmt.Errorf("solver %q does not support streamed jobs (no plane seeding); run it resident", entry.Name)
	}
	cells := int64(n.Domain.NI) * int64(n.Domain.NJ) * int64(n.Domain.NK)
	if !n.Streamed && cells > MaxGridCells {
		return n, &ErrGridTooLarge{Grid: s.Grid, Cells: cells, Limit: MaxGridCells}
	}
	if s.Steps <= 0 {
		return n, fmt.Errorf("steps must be positive, got %d", s.Steps)
	}
	if s.Steps > MaxSteps {
		return n, fmt.Errorf("steps %d exceeds the supported maximum %d", s.Steps, MaxSteps)
	}
	n.Steps = s.Steps
	if n.Strategy, err = ParseStrategy(s.Strategy); err != nil {
		return n, err
	}
	n.Processors = s.Processors
	if n.Processors == 0 {
		n.Processors = DefaultProcessors
	}
	if n.Processors < 0 {
		return n, fmt.Errorf("processors (worker teams) must be positive, got %d", n.Processors)
	}
	if n.Processors > MaxProcessors {
		return n, fmt.Errorf("processors %d exceeds the UV 2000's %d sockets", n.Processors, MaxProcessors)
	}
	if n.Placement, err = parseName("placement", s.Placement, "serial, parallel, interleaved", placements); err != nil {
		return n, err
	}
	if n.Variant, err = parseName("variant", s.Variant, "A = i dimension, B = j", variants); err != nil {
		return n, err
	}
	if n.Boundary, err = parseName("boundary", s.Boundary, "clamp, periodic", boundaries); err != nil {
		return n, err
	}
	if s.CoreIslands && n.Strategy != exec.IslandsOfCores {
		return n, fmt.Errorf("core_islands requires the islands strategy")
	}
	n.CoreIslands = s.CoreIslands
	if s.KSteps < 0 {
		return n, fmt.Errorf("ksteps must be non-negative, got %d", s.KSteps)
	}
	n.KSteps = s.KSteps
	if n.KSteps == 0 {
		n.KSteps = 1
	}
	if n.KSteps > 1 {
		if n.Strategy != exec.IslandsOfCores {
			return n, fmt.Errorf("ksteps > 1 requires the islands strategy")
		}
	}
	if !entry.MPDATAOptions {
		// The scheme knobs are MPDATA-specific; a non-default value on
		// another solver is a misdirected request, not a silent no-op.
		if s.IORD != 0 {
			return n, fmt.Errorf("iord applies only to the mpdata solver, not %q", entry.Name)
		}
		if s.Unlimited {
			return n, fmt.Errorf("unlimited applies only to the mpdata solver, not %q", entry.Name)
		}
	} else {
		n.IORD = s.IORD
		if n.IORD == 0 {
			n.IORD = 2
		}
		if n.IORD < 1 || n.IORD > 4 {
			return n, fmt.Errorf("iord must be 1..4, got %d", s.IORD)
		}
		n.Unlimited = s.Unlimited
	}
	if s.BlockI < 0 {
		return n, fmt.Errorf("block_i must be non-negative, got %d", s.BlockI)
	}
	n.BlockI = s.BlockI
	n.Pin = s.Pin
	n.Profile = s.Profile
	if s.TimeoutMs < 0 {
		return n, fmt.Errorf("timeout_ms must be non-negative, got %d", s.TimeoutMs)
	}
	n.TimeoutMs = s.TimeoutMs
	if s.MemoryBudgetMB < 0 {
		return n, fmt.Errorf("memory_budget_mb must be non-negative, got %d", s.MemoryBudgetMB)
	}
	if err := validateStreamID(s.StreamID); err != nil {
		return n, err
	}
	if !n.Streamed {
		if s.MemoryBudgetMB != 0 {
			return n, fmt.Errorf("memory_budget_mb applies only to streamed jobs")
		}
		if s.StreamID != "" {
			return n, fmt.Errorf("stream_id applies only to streamed jobs")
		}
	}
	n.MemoryBudgetMB = s.MemoryBudgetMB
	n.StreamID = s.StreamID
	if n.Streamed {
		// Streamed jobs derive their temporal factor k from the memory
		// budget (the tile engines' k is the residency k, not the spec's),
		// so an explicit ksteps is a contradiction, not a knob.
		if s.KSteps > 1 {
			return n, fmt.Errorf("ksteps does not apply to streamed jobs (the residency picker derives k from the memory budget)")
		}
		return n, nil
	}
	// With every field resolved, reject a temporal-blocking factor the
	// compiled schedule would silently drop to 1.
	if err := n.CheckKSteps(); err != nil {
		return n, err
	}
	return n, nil
}

// validateStreamID bounds a durable stream store name to a filesystem-safe
// charset — it becomes a directory name under the server's spill root.
func validateStreamID(id string) error {
	if len(id) > 64 {
		return fmt.Errorf("stream_id longer than 64 characters")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("stream_id may use only letters, digits, '.', '_' and '-', got %q", id)
		}
	}
	if id == "." || id == ".." {
		return fmt.Errorf("stream_id %q is not a valid store name", id)
	}
	return nil
}

// Admit normalizes a spec submitted as a job and applies the one rule that is
// about serving rather than about the run: a cached engine dispatches whole
// k-step blocks, so the step count must be a multiple of ksteps.
func (s Spec) Admit() (NormSpec, error) {
	n, err := s.Normalize()
	if err == nil && n.Steps%n.KSteps != 0 {
		err = fmt.Errorf("steps %d is not a multiple of ksteps %d (served jobs advance whole k-step blocks)", n.Steps, n.KSteps)
	}
	return n, err
}

// Validate reports whether a server would admit the spec.
func (s Spec) Validate() error {
	_, err := s.Admit()
	return err
}

// StrategyName is the metrics/report label of the strategy
// ("islands+core-islands" when the §6 extension is on).
func (n CacheKey) StrategyName() string {
	name := n.Strategy.String()
	if n.CoreIslands {
		name += "+core-islands"
	}
	return name
}

// CacheKey identifies a compiled engine: every field of a run that shapes the
// compiled schedule, the environments or the halo geometry — KSteps included,
// since the temporal block structure, widened halo shells and inner-swap items
// are all compiled in. The pool caches engines under it and the fleet router
// hashes it, so a field added here keys both. A run's remaining fields
// (NormSpec's Steps, Pin, Profile, TimeoutMs) stay out: a cached engine
// advances one k-step block (one step when KSteps <= 1) per dispatch, so jobs
// of any length and any deadline reuse it.
type CacheKey struct {
	Domain grid.Size
	// Solver is the canonical catalog name (never empty after Normalize):
	// engines compile one solver's program and are never shared across
	// catalog entries.
	Solver      string
	Strategy    exec.Strategy
	Processors  int
	Placement   grid.PlacementPolicy
	Variant     decomp.Variant
	Boundary    stencil.Boundary
	CoreIslands bool
	KSteps      int
	IORD        int
	Unlimited   bool
	BlockI      int
	// DisableFusion is no spec field: only the tuner's nofuse candidates set
	// it, on the key a job's engine is leased under.
	DisableFusion bool
	// Streamed jobs never share an engine with resident jobs of the same
	// geometry (their engine is a tile streamer, not a whole-domain
	// runner), and two streamed jobs share one only for the same store and
	// budget — hence all three fields key the cache.
	Streamed       bool
	MemoryBudgetMB int
	StreamID       string
}

// Key returns the identity of the engine that runs the spec.
func (n NormSpec) Key() CacheKey { return n.CacheKey }

// ExecConfig builds the executor configuration of the engine with the runner
// compiled for one dispatch unit per Run: one k-step block under temporal
// blocking, one step otherwise. Progress, deadlines and engine reuse all meet
// between dispatches; a caller that runs the whole job in one Run sets Steps
// on the result.
func (n CacheKey) ExecConfig() (exec.Config, error) {
	m, err := topology.UV2000(n.Processors)
	if err != nil {
		return exec.Config{}, err
	}
	return exec.Config{
		Machine:       m,
		Strategy:      n.Strategy,
		Placement:     n.Placement,
		Variant:       n.Variant,
		Boundary:      n.Boundary,
		Steps:         max(n.KSteps, 1),
		BlockI:        n.BlockI,
		CoreIslands:   n.CoreIslands,
		KSteps:        n.KSteps,
		DisableFusion: n.DisableFusion,
	}, nil
}

// StepsPerDispatch is the number of time steps one engine Step advances: the
// temporal block size, or 1 without temporal blocking.
func (n CacheKey) StepsPerDispatch() int { return max(n.KSteps, 1) }

// SolverEntry resolves the catalog entry. Normalize canonicalized the name,
// so a lookup failure on a normalized spec is a programming error.
func (n CacheKey) SolverEntry() (*solver.Entry, error) {
	return solver.Lookup(n.Solver)
}

// SolverOptions are the program-build options in the catalog's form
// (zero-valued for solvers without MPDATA options).
func (n CacheKey) SolverOptions() solver.Options {
	return solver.Options{IORD: n.IORD, Unlimited: n.Unlimited}
}

// ConfigLabel names the execution configuration in the advisor's candidate
// vocabulary ("islands 1D-A k=4 b=16", ...) — the requested-vs-tuned label
// of job results and load reports.
func (n CacheKey) ConfigLabel() string {
	ec, err := n.ExecConfig()
	if err != nil {
		return n.StrategyName()
	}
	return exec.CandidateLabel(ec)
}
