// Package solver is the stencil-solver catalog: a registry of stencil
// programs — each described as a stage DAG with per-stage extents, a field
// set, boundary-condition semantics and a sequential reference — that the
// internal/stencil + internal/exec pipeline compiles into scheduled, fused,
// halo-exchanged and temporally blocked engines with zero solver-specific
// code in the executor. A catalog entry is addressable by name everywhere a
// workload appears: the serve job spec ("solver"), the engine cache key and
// fleet routing hash, the tuner's problem classes, mpdata-sim -solver, and
// the out-of-core streaming executor (for entries that declare plane
// seeding). Adding a solver is writing one Entry; fusion, k-step temporal
// blocking, halo-strip exchange, autotuning and fleet serving come for free
// (docs/SOLVERS.md).
package solver

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Options carries the per-solver numerical options a job spec can select.
// Only MPDATA consumes them today; entries that ignore them must be
// registered with MPDATAOptions=false so the spec layer rejects attempts to
// set them (a silently ignored option would poison result comparability).
type Options struct {
	// IORD is the MPDATA advection order (0 = the paper's default of 2).
	IORD int
	// Unlimited disables MPDATA's non-oscillatory flux limiter.
	Unlimited bool
}

// State is a solver's allocated step-input fields for one domain, bound by
// name exactly as the program's StepInputs declare them. The feedback field
// doubles as the solution the serving layer checksums.
type State struct {
	Domain grid.Size
	// Inputs binds every step-input name to its field.
	Inputs map[string]*grid.Field
	// Feedback names the field the program's output is swapped into between
	// steps (== Program.Feedback).
	Feedback string
}

// Output returns the feedback field — the evolving solution.
func (s *State) Output() *grid.Field { return s.Inputs[s.Feedback] }

// StreamSupport is the optional out-of-core contract of a catalog entry
// (internal/stream): the streaming executor seeds its on-disk plane store
// and refills tile-resident non-feedback inputs at global coordinates, so a
// streamed run stays bit-identical to the resident one. Entries without it
// are resident-only; the spec layer rejects their streamed jobs.
type StreamSupport struct {
	// SeedPlane fills dst (NJ*NK cells, j-major) with global i-plane gi of
	// the feedback field's initial condition.
	SeedPlane func(dst []float64, global grid.Size, gi int)
	// FillWindow writes the non-feedback inputs of a tile state whose local
	// plane li corresponds to global plane gi(li). The feedback planes come
	// from the store; everything else is recomputed analytically — every cell
	// of every other input, each time: the tile engines of a run share their
	// storage, so a field holds nothing from the previous tile. May be nil
	// when the feedback field is the solver's only input.
	FillWindow func(st *State, global grid.Size, gi func(li int) int)
}

// Entry is one catalog solver: the program description plus the sequential
// reference every compiled schedule must match bit for bit.
type Entry struct {
	// Name is the catalog key ("mpdata", "heat", ...): lowercase, stable,
	// part of engine cache keys and the fleet routing hash.
	Name string
	// Description is the one-line catalog summary docs/SOLVERS.md lists.
	Description string
	// MPDATAOptions reports that Options.IORD/Unlimited select this entry's
	// program build. False rejects them at the spec boundary.
	MPDATAOptions bool
	// CheckDomain rejects domain sizes the solver cannot run on (component
	// packing constraints such as LBM's NK == 9). Nil accepts any valid size.
	CheckDomain func(domain grid.Size) error
	// NewProgram builds the one-step stage DAG with executable kernels.
	NewProgram func(opt Options) (*stencil.KernelProgram, error)
	// NewState allocates zeroed step-input fields for a domain.
	NewState func(domain grid.Size) (*State, error)
	// SetProblem writes the solver's standard initial conditions into an
	// allocated state — the deterministic problem serve engines reset to,
	// shared with the CLI and the streaming store seed so results stay
	// bit-comparable across execution modes.
	SetProblem func(st *State)
	// Reference advances the state's fields by steps time steps with a
	// sequential implementation independent of the compiled executor — the
	// bit-identity oracle of the cross-solver property tests.
	Reference func(st *State, steps int, bc stencil.Boundary, opt Options) error
	// Stream, when non-nil, makes the entry eligible for streamed
	// (out-of-core) jobs.
	Stream *StreamSupport
}

// Streamable reports whether the entry supports out-of-core streaming.
func (e *Entry) Streamable() bool { return e.Stream != nil }

var (
	mu      sync.RWMutex
	catalog = map[string]*Entry{}
)

// Register adds an entry to the catalog. It panics on duplicate or invalid
// registrations — registration happens in package init, where a panic is a
// build bug, not a runtime condition.
func Register(e *Entry) {
	if e.Name == "" || e.Name != strings.ToLower(strings.TrimSpace(e.Name)) {
		panic(fmt.Sprintf("solver: invalid name %q", e.Name))
	}
	if e.NewProgram == nil || e.NewState == nil || e.SetProblem == nil || e.Reference == nil {
		panic(fmt.Sprintf("solver: entry %q is missing a required hook", e.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := catalog[e.Name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", e.Name))
	}
	catalog[e.Name] = e
}

// DefaultName is the solver an empty spec/flag selects — the repo's original
// workload.
const DefaultName = "mpdata"

// Canonical normalizes a user-supplied solver name: trimmed, lowercased,
// empty mapped to DefaultName.
func Canonical(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "" {
		return DefaultName
	}
	return name
}

// Lookup resolves a solver name ("" = DefaultName) to its catalog entry.
// Unknown names return an error listing the catalog.
func Lookup(name string) (*Entry, error) {
	key := Canonical(name)
	mu.RLock()
	e := catalog[key]
	mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("unknown solver %q (catalog: %s)", name, strings.Join(Names(), ", "))
	}
	return e, nil
}

// Names returns the catalog's solver names, sorted, with the default first.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool {
		if (names[a] == DefaultName) != (names[b] == DefaultName) {
			return names[a] == DefaultName
		}
		return names[a] < names[b]
	})
	return names
}

// NewProblemState allocates an entry's state and writes the standard
// problem — the common NewState+SetProblem sequence of CLIs and tests.
func (e *Entry) NewProblemState(domain grid.Size) (*State, error) {
	if e.CheckDomain != nil {
		if err := e.CheckDomain(domain); err != nil {
			return nil, err
		}
	}
	st, err := e.NewState(domain)
	if err != nil {
		return nil, err
	}
	e.SetProblem(st)
	return st, nil
}

// newState is the shared NewState shape: one zeroed field per step input.
func newState(domain grid.Size, feedback string, inputs ...string) *State {
	st := &State{Domain: domain, Inputs: make(map[string]*grid.Field, len(inputs)), Feedback: feedback}
	for _, name := range inputs {
		st.Inputs[name] = grid.NewField(name, domain)
	}
	return st
}

// SequentialReference advances the state by running every stage kernel over
// the whole domain in program order and copying the output into the feedback
// field after each step — the repo's reference-executor convention (it is
// exactly what mpdata.Solver does). Entries whose reference cannot be
// written independently of the kernels use it; the new workloads carry
// genuinely independent reference loops instead.
func SequentialReference(prog *stencil.KernelProgram, st *State, steps int, bc stencil.Boundary) error {
	env, err := stencil.NewEnv(&prog.Program, st.Domain, st.Inputs)
	if err != nil {
		return err
	}
	env.BC = bc
	whole := grid.WholeRegion(st.Domain)
	out := st.Inputs[prog.Feedback]
	for t := 0; t < steps; t++ {
		for _, kern := range prog.Kernels {
			kern(env, whole)
		}
		out.CopyFrom(env.Field(prog.Output))
	}
	return nil
}

// requireNK returns a CheckDomain hook demanding an exact k-extent — the
// component-packing rule of the multi-field 2D solvers (docs/SOLVERS.md):
// the executor advances one field with one feedback swap, so solvers with
// several unknowns per cell pack them along the never-partitioned k axis.
func requireNK(nk int, what string) func(grid.Size) error {
	return func(d grid.Size) error {
		if d.NK != nk {
			return fmt.Errorf("domain %v: NK must be exactly %d (%s)", d, nk, what)
		}
		return nil
	}
}
