package exec

import (
	"fmt"
	"sort"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// This file exposes the executor's configuration space as data: which
// configurations are feasible for a machine/program/domain triple, a stable
// human-readable label for each, and their ranking on the machine model
// (RankCandidates — the paper's §6 "management of the correlation between
// computation and communication costs"). The advice of islands.Advise and
// mpdata-sim -advise is that ranking; the autotuner (internal/tune) seeds from
// it and additionally measures the promising candidates through the compiled
// compute backend. Every knob the enumeration toggles — strategy,
// CoreIslands, BlockI, KSteps, fusion, placement — is bit-identity-preserving
// by construction, so any candidate is a legal substitute for any other with
// the same program and domain.

// CandidateSpace selects which knob axes RankCandidates explores.
type CandidateSpace struct {
	// BlockIs lists the (3+1)D block widths to try for the blocked
	// strategies. 0 means "derive from the node's LLC" (the executor
	// default); other values are used as-is. Nil means {0}.
	BlockIs []int
	// KSteps lists the temporal-blocking factors to try for the islands
	// strategies (values <= 1 mean no temporal blocking). Infeasible
	// factors (CheckKSteps) are silently skipped — they would run as k=1
	// and only duplicate an existing candidate. Nil means {1}.
	KSteps []int
	// Placements lists the NUMA page placements to try. Nil means
	// {FirstTouchParallel}, the paper's placement.
	Placements []grid.PlacementPolicy
	// FusionAblation adds one fusion-disabled arm per strategy at the
	// default knobs — worth trying because fused sweeps trade barrier
	// count against per-sweep working-set size.
	FusionAblation bool
	// Mappings2D includes the 1D variant-B mapping and every proper 2D
	// island-grid factorization of the node count (the advisor's full
	// mapping sweep). Off, only the base config's Variant is used.
	Mappings2D bool
	// ClampForK forces the clamp boundary on the temporally blocked arms
	// (the advisor's historical pricing convention: a periodic wrap across
	// island ownership always falls back, so k arms are priced under
	// clamp). The tuner leaves this off — switching the boundary would
	// change results, so k arms keep the base boundary and CheckKSteps
	// decides feasibility.
	ClampForK bool
}

// TuneSpace returns the autotuner's default candidate space for a machine and
// domain: block widths at half/default/double the LLC-derived choice,
// temporal blocking k in {1,2,4,8}, both first-touch-parallel and interleaved
// placement, and the fusion ablation. The serial first-touch placement is
// excluded — it is dominated by parallel first touch for every strategy the
// moment more than one node computes (all pages land on node 0).
func TuneSpace(m *topology.Machine, domain grid.Size) CandidateSpace {
	auto := decomp.ChooseBlock(domain, m.Nodes[0].LLCBytes, 0).BI
	blocks := []int{auto}
	if half := auto / 2; half >= 1 && half != auto {
		blocks = append(blocks, half)
	}
	if dbl := auto * 2; dbl <= domain.NI && dbl != auto {
		blocks = append(blocks, dbl)
	}
	return CandidateSpace{
		BlockIs:        blocks,
		KSteps:         []int{1, 2, 4, 8},
		Placements:     []grid.PlacementPolicy{grid.FirstTouchParallel, grid.Interleaved},
		FusionAblation: true,
	}
}

// AdvisorSpace returns the candidate space of the strategy advice
// (islands.Advise, mpdata-sim -advise): the historical mapping sweep (1D A/B,
// every 2D factorization, core sub-islands) with k in {1,2,4,8} at the
// default block width and parallel first-touch placement.
func AdvisorSpace() CandidateSpace {
	return CandidateSpace{
		BlockIs:    []int{0},
		KSteps:     []int{1, 2, 4, 8},
		Placements: []grid.PlacementPolicy{grid.FirstTouchParallel},
		Mappings2D: true,
		ClampForK:  true,
	}
}

// CheckConfig reports whether a configuration's execution geometry is
// feasible for the program and domain (island partitions fit, 2D grids
// factor the node count, the fusion plan builds). It is the data-level twin
// of NewRunner's plan construction: a nil error means newPlan succeeds.
func CheckConfig(cfg Config, prog *stencil.Program, domain grid.Size) error {
	_, err := newPlan(cfg, prog, domain)
	return err
}

// ResolveBlockI returns the explicit (3+1)D block width a configuration's
// BlockI resolves to on a machine: the LLC-derived default when blockI <= 0,
// otherwise blockI clamped to the domain's i extent (wider blocks produce the
// identical single-block decomposition, so clamping canonicalizes aliases).
func ResolveBlockI(m *topology.Machine, domain grid.Size, blockI int) int {
	if blockI <= 0 {
		return decomp.ChooseBlock(domain, m.Nodes[0].LLCBytes, 0).BI
	}
	return min(blockI, domain.NI)
}

// RankCandidates prices every feasible configuration of the space on the
// machine model and returns the results fastest first: a stable sort by
// modeled time, so equal times keep the enumeration order. Each result carries
// its Config; CandidateLabel names it and Rationale explains its cost. The
// base config supplies every field that is not a knob (Boundary, Variant,
// Steps, ModelParams) and base.Steps must be positive.
func RankCandidates(m *topology.Machine, prog *stencil.Program, domain grid.Size, base Config, space CandidateSpace) ([]*ModelResult, error) {
	if base.Steps <= 0 {
		return nil, fmt.Errorf("exec: steps must be positive, got %d", base.Steps)
	}
	cfgs := enumerateCandidates(m, prog, domain, base, space)
	out := make([]*ModelResult, 0, len(cfgs))
	for _, cfg := range cfgs {
		r, err := Model(cfg, prog, domain)
		if err != nil {
			return nil, fmt.Errorf("exec: pricing %s: %w", CandidateLabel(cfg), err)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalTime < out[j].TotalTime })
	return out, nil
}

// Rationale describes a priced configuration's cost structure in one line.
func (r *ModelResult) Rationale() string {
	switch {
	case r.Config.Strategy == Original:
		return fmt.Sprintf("memory-bound: %.1f GB of main-memory traffic, %.1f GB over NUMAlink",
			r.MemTrafficBytes/1e9, r.RemoteTrafficBytes/1e9)
	case r.Config.Strategy == Plus31D:
		return fmt.Sprintf("cache-blocked but machine-wide: per-stage sync and remote halo pulls dominate (%.1f GB NUMAlink)",
			r.RemoteTrafficBytes/1e9)
	case r.Config.KSteps > 1:
		return fmt.Sprintf("temporally blocked islands: barriers amortized over %d-step blocks for %.2f%% redundant elements, %.1f GB NUMAlink",
			r.Config.KSteps, r.ExtraElementsPct, r.RemoteTrafficBytes/1e9)
	default:
		return fmt.Sprintf("independent islands: %.2f%% redundant elements, %.1f GB NUMAlink",
			r.ExtraElementsPct, r.RemoteTrafficBytes/1e9)
	}
}

// enumerateCandidates builds every feasible configuration over the space's
// knob axes for the machine, program and domain. Machine and the tuned knobs
// are overwritten per candidate. Candidates come back in deterministic order:
// strategy-major, then placement, block, k. Only feasible configs are
// returned — every result passes Config.Validate, CheckConfig, and (for k > 1)
// CheckKSteps.
func enumerateCandidates(m *topology.Machine, prog *stencil.Program, domain grid.Size, base Config, space CandidateSpace) []Config {
	blocks := space.BlockIs
	if len(blocks) == 0 {
		blocks = []int{0}
	}
	ks := space.KSteps
	if len(ks) == 0 {
		ks = []int{1}
	}
	placements := space.Placements
	if len(placements) == 0 {
		placements = []grid.PlacementPolicy{grid.FirstTouchParallel}
	}

	var out []Config
	add := func(cfg Config) {
		cfg.Machine = m
		if CheckConfig(cfg, prog, domain) != nil {
			return
		}
		if cfg.KSteps > 1 && CheckKSteps(cfg, prog, domain) != nil {
			return
		}
		out = append(out, cfg)
	}
	// proto carries the base's non-tunable fields into every candidate.
	proto := base
	proto.Strategy, proto.CoreIslands, proto.IslandGrid = Original, false, [2]int{}
	proto.BlockI, proto.KSteps, proto.DisableFusion = 0, 0, false

	for _, pl := range placements {
		cfg := proto
		cfg.Strategy = Original
		cfg.Placement = pl
		add(cfg)
	}
	if space.FusionAblation {
		cfg := proto
		cfg.Strategy, cfg.Placement, cfg.DisableFusion = Original, placements[0], true
		add(cfg)
	}

	for _, pl := range placements {
		for _, b := range blocks {
			cfg := proto
			cfg.Strategy, cfg.Placement, cfg.BlockI = Plus31D, pl, b
			add(cfg)
		}
	}
	if space.FusionAblation {
		cfg := proto
		cfg.Strategy, cfg.Placement, cfg.DisableFusion = Plus31D, placements[0], true
		add(cfg)
	}

	// Island mappings: the base variant's 1D cut, plus (Mappings2D) the
	// other 1D variant and every proper 2D factorization of the node count.
	type mapping struct {
		variant decomp.Variant
		igrid   [2]int
	}
	mappings := []mapping{{variant: base.Variant}}
	if space.Mappings2D && m.NumNodes() > 1 {
		other := decomp.VariantB
		if base.Variant == decomp.VariantB {
			other = decomp.VariantA
		}
		mappings = append(mappings, mapping{variant: other})
		p := m.NumNodes()
		for pi := 2; pi < p; pi++ {
			if p%pi == 0 {
				mappings = append(mappings, mapping{igrid: [2]int{pi, p / pi}})
			}
		}
	}
	islandArm := func(coreIslands bool) {
		for _, mp := range mappings {
			if coreIslands && mp != mappings[0] {
				continue // core sub-islands ride the base 1D mapping only
			}
			for _, pl := range placements {
				for _, b := range blocks {
					for _, k := range ks {
						cfg := proto
						cfg.Strategy = IslandsOfCores
						cfg.Variant, cfg.IslandGrid = mp.variant, mp.igrid
						cfg.CoreIslands = coreIslands
						cfg.Placement, cfg.BlockI = pl, b
						if k > 1 {
							cfg.KSteps = k
							if space.ClampForK {
								cfg.Boundary = stencil.Clamp
							}
						}
						add(cfg)
					}
				}
			}
			if space.FusionAblation {
				cfg := proto
				cfg.Strategy = IslandsOfCores
				cfg.Variant, cfg.IslandGrid = mp.variant, mp.igrid
				cfg.CoreIslands = coreIslands
				cfg.Placement, cfg.DisableFusion = placements[0], true
				add(cfg)
			}
		}
	}
	islandArm(false)
	islandArm(true)
	return out
}

// CandidateLabel names a candidate the way the advisor's reports always have:
// "original", "(3+1)D", "islands 1D-A"/"islands 1D-B" (just "islands" on one
// node), "islands 2x4", "islands + core sub-islands" — with " k=N" for
// temporal blocking and, for non-default knobs the tuner explores, " b=N"
// (explicit block width), " nofuse" (fusion ablation) and " interleaved"
// (placement).
func CandidateLabel(cfg Config) string {
	var name string
	switch cfg.Strategy {
	case Original:
		name = "original"
	case Plus31D:
		name = "(3+1)D"
	case IslandsOfCores:
		switch {
		case cfg.CoreIslands:
			name = "islands + core sub-islands"
		case cfg.IslandGrid != [2]int{}:
			name = fmt.Sprintf("islands %dx%d", cfg.IslandGrid[0], cfg.IslandGrid[1])
		case cfg.Machine != nil && cfg.Machine.NumNodes() == 1:
			name = "islands"
		case cfg.Variant == decomp.VariantB:
			name = "islands 1D-B"
		default:
			name = "islands 1D-A"
		}
	default:
		name = cfg.Strategy.String()
	}
	if cfg.KSteps > 1 {
		name += fmt.Sprintf(" k=%d", cfg.KSteps)
	}
	if cfg.BlockI > 0 && cfg.Strategy != Original {
		name += fmt.Sprintf(" b=%d", cfg.BlockI)
	}
	if cfg.DisableFusion {
		name += " nofuse"
	}
	switch cfg.Placement {
	case grid.FirstTouchSerial:
		name += " serial-touch"
	case grid.Interleaved:
		name += " interleaved"
	}
	return name
}
