// Package islands reproduces the PaCT 2017 paper "Islands-of-Cores Approach
// for Harnessing SMP/NUMA Architectures in Heterogeneous Stencil
// Computations" (Szustak, Wyrzykowski, Jakl) as a Go library.
//
// It provides:
//
//   - a full 17-stage MPDATA advection solver expressed as a heterogeneous
//     stencil program (internal/mpdata, internal/stencil);
//   - the paper's three execution strategies — original, (3+1)D
//     decomposition, and islands-of-cores — running real computations on
//     goroutine work teams (internal/exec, internal/sched);
//   - a simulated SMP/NUMA machine (SGI UV 2000 and variants) with a
//     flow-level contention model that prices each strategy's execution
//     time, reproducing the paper's Tables 1-4 and Fig. 2
//     (internal/topology, internal/simmach, internal/perf).
//
// The quickest entry points are Simulation (run MPDATA numerically with any
// strategy), Predict (price a configuration on the simulated machine) and
// Advise (rank every configuration by modeled time). See examples/ for
// runnable programs; cmd/paper-tables prints the paper's evaluation tables
// and EXPERIMENTS.md compares them with the published numbers.
package islands

import (
	"fmt"

	"islands/internal/decomp"
	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/serve"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// Strategy selects how a simulation is executed and priced.
type Strategy = exec.Strategy

// The three strategies of the paper.
const (
	Original       = exec.Original
	Plus31D        = exec.Plus31D
	IslandsOfCores = exec.IslandsOfCores
)

// Placement selects the NUMA page placement policy.
type Placement = grid.PlacementPolicy

// Placement policies.
const (
	FirstTouchSerial   = grid.FirstTouchSerial
	FirstTouchParallel = grid.FirstTouchParallel
	Interleaved        = grid.Interleaved
)

// Variant selects the 1D island mapping dimension.
type Variant = decomp.Variant

// Island mapping variants (paper §4.2, Table 2).
const (
	VariantA = decomp.VariantA
	VariantB = decomp.VariantB
)

// Boundary selects the domain boundary condition.
type Boundary = stencil.Boundary

// Boundary conditions.
const (
	Periodic = stencil.Periodic
	Clamp    = stencil.Clamp
)

// Machine is a simulated SMP/NUMA platform.
type Machine = topology.Machine

// UV2000 returns the paper's machine with p of its 14 NUMA nodes
// (8-core Xeon E5-4627v2 each, NUMAlink 6 interconnect).
var UV2000 = topology.UV2000

// Size is a 3D grid extent.
type Size = grid.Size

// Sz constructs a Size.
func Sz(ni, nj, nk int) Size { return grid.Sz(ni, nj, nk) }

// Config selects the execution setting of a simulation or prediction.
type Config struct {
	// Processors is the number of UV 2000 NUMA nodes to use (1..14).
	Processors int
	Strategy   Strategy
	Placement  Placement
	Variant    Variant
	Boundary   Boundary
	// Steps is the number of MPDATA time steps.
	Steps int
	// BlockI overrides the (3+1)D block width (0 = size from cache).
	BlockI int
	// IslandGrid, when non-zero, maps islands onto a 2D grid of
	// processors (pi x pj over the first two dimensions) instead of the
	// 1D mapping selected by Variant — the paper's §4.2 future work.
	IslandGrid [2]int
	// CoreIslands applies the islands approach inside every island: each
	// core becomes a sub-island with private redundant trapezoids and no
	// intra-block synchronization — the paper's §6 future work.
	CoreIslands bool
	// IORD selects the MPDATA order (number of passes); 0 means the
	// paper's default of 2. Higher orders append corrective stage groups.
	IORD int
	// Unlimited disables the non-oscillatory flux limiter, removing six
	// stages per corrective pass and the monotonicity guarantee.
	Unlimited bool
}

// engine resolves the configuration on a domain the way every other front end
// does: as the serve.CacheKey of an MPDATA engine, whose ExecConfig and
// catalog program are the one road from a run description to an executor.
// The whole run advances in one Run, and IslandGrid, which no key carries,
// is the facade's own.
func (c Config) engine(domain Size) (exec.Config, *stencil.KernelProgram, error) {
	key := serve.CacheKey{
		Domain: domain, Solver: "mpdata", Strategy: c.Strategy, Processors: c.Processors,
		Placement: c.Placement, Variant: c.Variant, Boundary: c.Boundary,
		CoreIslands: c.CoreIslands, IORD: c.IORD, Unlimited: c.Unlimited,
		BlockI: c.BlockI,
	}
	ec, err := key.ExecConfig()
	if err != nil {
		return exec.Config{}, nil, err
	}
	ec.Steps, ec.IslandGrid = c.Steps, c.IslandGrid
	entry, err := key.SolverEntry()
	if err != nil {
		return exec.Config{}, nil, err
	}
	prog, err := entry.NewProgram(key.SolverOptions())
	return ec, prog, err
}

// Simulation is an MPDATA run: a state (fields) plus an execution strategy.
type Simulation struct {
	State *mpdata.State
	// OnStep, when set, is invoked after every completed time step with
	// the zero-based step index; the state is fully published at that
	// point. Use it to update time-dependent velocities (via the State
	// setters) or to record diagnostics.
	OnStep func(step int)

	cfg Config
}

// NewSimulation allocates an MPDATA simulation on the given domain. The
// state's initial conditions can be set through the State field (SetGaussian,
// SetSphere, SetUniformVelocity, SetRotationVelocityZ) before calling Run.
func NewSimulation(domain Size, cfg Config) (*Simulation, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("islands: Steps must be positive")
	}
	if cfg.Processors <= 0 {
		return nil, fmt.Errorf("islands: Processors must be positive")
	}
	return &Simulation{State: mpdata.NewState(domain), cfg: cfg}, nil
}

// Run executes the configured number of time steps with the configured
// strategy, performing the real numerical computation in parallel. The
// result lands in s.State.Psi.
func (s *Simulation) Run() error {
	ec, prog, err := s.cfg.engine(s.State.Domain)
	if err != nil {
		return err
	}
	runner, err := exec.NewRunner(ec, prog, s.State.InputMap(), mpdata.InPsi)
	if err != nil {
		return err
	}
	defer runner.Close()
	runner.OnStepEnd = s.OnStep
	if err := runner.Run(); err != nil {
		return err
	}
	// The islands' swap+halo feedback mode keeps the fresh values in
	// island-private buffers during the step loop; materialize them into
	// State.Psi (a no-op for the other strategies and modes).
	runner.SyncFeedback()
	return nil
}

// Save writes the simulation state (all five fields and the completed-step
// counter, derived from the configured steps if Run finished) to a
// checkpoint file readable by Load.
func (s *Simulation) Save(path string, completedSteps int) error {
	return mpdata.SaveCheckpoint(path, s.State, completedSteps)
}

// Load restores a checkpoint into a fresh simulation with the given
// configuration, returning the simulation and the step counter the
// checkpoint was taken at.
func Load(path string, cfg Config) (*Simulation, int, error) {
	state, steps, err := mpdata.LoadCheckpoint(path)
	if err != nil {
		return nil, 0, err
	}
	sim, err := NewSimulation(state.Domain, cfg)
	if err != nil {
		return nil, 0, err
	}
	sim.State = state
	return sim, steps, nil
}

// Prediction is the modeled performance of a configuration on the simulated
// UV 2000.
type Prediction struct {
	// Time is the modeled execution time in seconds for all steps.
	Time float64
	// SustainedGflops is useful flop/s over the run, in Gflop/s.
	SustainedGflops float64
	// UtilizationPct is sustained performance over theoretical peak.
	UtilizationPct float64
	// ExtraElementsPct is the redundant-computation overhead (Table 2).
	ExtraElementsPct float64
	// MemTrafficGB is the main-memory traffic of the run.
	MemTrafficGB float64
	// RemoteTrafficGB is the NUMAlink traffic of the run.
	RemoteTrafficGB float64
}

// Predict prices an MPDATA configuration on the simulated machine without
// running the numerics — the tool behind the paper-table reproduction.
func Predict(domain Size, cfg Config) (*Prediction, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("islands: Steps must be positive")
	}
	ec, kp, err := cfg.engine(domain)
	if err != nil {
		return nil, err
	}
	res, err := exec.Model(ec, &kp.Program, domain)
	if err != nil {
		return nil, err
	}
	peak := ec.Machine.PeakFlops()
	return &Prediction{
		Time:             res.TotalTime,
		SustainedGflops:  res.SustainedFlops() / 1e9,
		UtilizationPct:   100 * res.SustainedFlops() / peak,
		ExtraElementsPct: res.ExtraElementsPct,
		MemTrafficGB:     res.MemTrafficBytes / 1e9,
		RemoteTrafficGB:  res.RemoteTrafficBytes / 1e9,
	}, nil
}

// Recommendation is one ranked configuration from Advise.
type Recommendation struct {
	// Name labels the configuration ("islands 7x2", "original", ...).
	Name string
	// Time is the modeled execution time in seconds.
	Time float64
	// Rationale summarizes the configuration's cost structure.
	Rationale string
}

// Advise prices every strategy and island mapping for an MPDATA run of the
// given size on p UV 2000 processors and returns them fastest-first — the
// paper's §6 "management of the correlation between computation and
// communication costs" as a library call.
func Advise(domain Size, p, steps int) ([]Recommendation, error) {
	ec, kp, err := Config{Processors: p}.engine(domain)
	if err != nil {
		return nil, err
	}
	ranked, err := exec.RankCandidates(ec.Machine, &kp.Program, domain, exec.Config{Steps: steps}, exec.AdvisorSpace())
	if err != nil {
		return nil, err
	}
	out := make([]Recommendation, len(ranked))
	for i, r := range ranked {
		out[i] = Recommendation{
			Name:      exec.CandidateLabel(r.Config),
			Time:      r.TotalTime,
			Rationale: r.Rationale(),
		}
	}
	return out, nil
}
