package exec

import (
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// referenceMPDATA runs the sequential reference solver under clamp
// boundaries and returns the final psi.
func referenceMPDATA(domain grid.Size, steps int) (*mpdata.State, *grid.Field) {
	state := mpdata.NewState(domain)
	state.SetGaussian(float64(domain.NI)/2, float64(domain.NJ)/2, float64(domain.NK)/2, 2.5, 2, 0.2)
	state.SetRotationVelocityZ(0.01)
	solver, err := mpdata.NewSolver(state)
	if err != nil {
		panic(err)
	}
	solver.SetBoundary(stencil.Clamp)
	solver.Step(steps)
	return state, state.Psi.Clone()
}

// freshState rebuilds the same initial conditions.
func freshState(domain grid.Size) *mpdata.State {
	state := mpdata.NewState(domain)
	state.SetGaussian(float64(domain.NI)/2, float64(domain.NJ)/2, float64(domain.NK)/2, 2.5, 2, 0.2)
	state.SetRotationVelocityZ(0.01)
	return state
}

func runStrategy(t *testing.T, cfg Config, domain grid.Size) *grid.Field {
	t.Helper()
	state := freshState(domain)
	runner, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	runner.SyncFeedback() // materialize swap+halo feedback into state.Psi
	return state.Psi
}

// TestStrategiesMatchReference is the central integration test: all three
// strategies, on multi-node machines, with forced multi-block decomposition
// and both island variants, must reproduce the sequential reference
// bit-for-bit.
func TestStrategiesMatchReference(t *testing.T) {
	domain := grid.Sz(24, 18, 8)
	const steps = 3
	_, want := referenceMPDATA(domain, steps)

	machines := map[string]int{"1cpu": 1, "3cpu": 3}
	for name, p := range machines {
		m, err := topology.UV2000(p)
		if err != nil {
			t.Fatal(err)
		}
		cases := []Config{
			{Machine: m, Strategy: Original, Boundary: stencil.Clamp, Steps: steps},
			{Machine: m, Strategy: Plus31D, Boundary: stencil.Clamp, Steps: steps, BlockI: 5},
			{Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: steps, BlockI: 5},
			{Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: steps, BlockI: 5, Variant: decomp.VariantB},
		}
		for _, cfg := range cases {
			got := runStrategy(t, cfg, domain)
			if d := grid.MaxAbsDiff(want, got); d != 0 {
				t.Errorf("%s/%v/variant%v: max diff %g, want exact match",
					name, cfg.Strategy, cfg.Variant, d)
			}
		}
	}
}

func TestOriginalMatchesReferencePeriodic(t *testing.T) {
	domain := grid.Sz(16, 12, 6)
	const steps = 2
	state := mpdata.NewState(domain)
	state.SetGaussian(8, 6, 3, 2, 1, 0.1)
	state.SetUniformVelocity(0.3, -0.2, 0.1)
	solver, err := mpdata.NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	solver.Step(steps)
	want := state.Psi.Clone()

	m, _ := topology.UV2000(2)
	par := mpdata.NewState(domain)
	par.SetGaussian(8, 6, 3, 2, 1, 0.1)
	par.SetUniformVelocity(0.3, -0.2, 0.1)
	runner, err := NewRunner(Config{
		Machine: m, Strategy: Original, Boundary: stencil.Periodic, Steps: steps,
	}, mpdata.NewProgram(), par.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	if err := runner.Run(); err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(want, par.Psi); d != 0 {
		t.Fatalf("periodic original: max diff %g", d)
	}
}

func TestFig1StrategiesAgree(t *testing.T) {
	domain := grid.Sz(32, 4, 2)
	prog := stencil.Fig1Program()
	mk := func() map[string]*grid.Field {
		in := grid.NewField("in", domain)
		in.FillFunc(func(i, j, k int) float64 { return float64((i*7+j*3+k)%11) * 0.25 })
		return map[string]*grid.Field{"in": in}
	}
	m, _ := topology.UV2000(4)
	var results []*grid.Field
	for _, strat := range []Strategy{Original, Plus31D, IslandsOfCores} {
		inputs := mk()
		runner, err := NewRunner(Config{
			Machine: m, Strategy: strat, Boundary: stencil.Clamp, Steps: 4, BlockI: 3,
		}, prog, inputs, "in")
		if err != nil {
			t.Fatal(err)
		}
		if err := runner.Run(); err != nil {
			t.Fatal(err)
		}
		runner.SyncFeedback()
		runner.Close()
		results = append(results, inputs["in"])
	}
	for i := 1; i < len(results); i++ {
		if d := grid.MaxAbsDiff(results[0], results[i]); d != 0 {
			t.Fatalf("strategy %d differs from original by %g", i, d)
		}
	}
}

func TestPlanGeometry(t *testing.T) {
	m, _ := topology.UV2000(3)
	domain := grid.Sz(30, 12, 4)
	state := freshState(domain)
	runner, err := NewRunner(Config{
		Machine: m, Strategy: IslandsOfCores, Boundary: stencil.Clamp, Steps: 1, BlockI: 4,
	}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
	if err != nil {
		t.Fatal(err)
	}
	defer runner.Close()
	info := runner.Plan()
	if len(info.Parts) != 3 {
		t.Fatalf("parts = %d, want 3", len(info.Parts))
	}
	// Each island of width 10 cut into blocks of 4: 3 blocks.
	for i, blocks := range info.Blocks {
		if len(blocks) != 3 {
			t.Fatalf("island %d has %d blocks, want 3", i, len(blocks))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := topology.SingleSocket()
	state := freshState(grid.Sz(8, 8, 4))
	if _, err := NewRunner(Config{Machine: m, Steps: 0}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected error for zero steps")
	}
	if _, err := NewRunner(Config{Steps: 1}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected error for nil machine")
	}
	if _, err := NewRunner(Config{Machine: m, Steps: 1, Strategy: Strategy(99)}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
	if _, err := NewRunner(Config{Machine: m, Steps: 1}, mpdata.NewProgram(), state.InputMap(), "nope"); err == nil {
		t.Fatal("expected error for unknown feedback input")
	}
	big, _ := topology.UV2000(14)
	small := freshState(grid.Sz(8, 8, 4))
	if _, err := NewRunner(Config{Machine: big, Steps: 1, Strategy: IslandsOfCores},
		mpdata.NewProgram(), small.InputMap(), mpdata.InPsi); err == nil {
		t.Fatal("expected error for more islands than columns")
	}
}

func TestStrategyString(t *testing.T) {
	if Original.String() != "original" || Plus31D.String() != "(3+1)D" ||
		IslandsOfCores.String() != "islands-of-cores" {
		t.Fatal("strategy names wrong")
	}
}

func TestTraversalCounts(t *testing.T) {
	prog := mpdata.NewProgram()
	// 63 stage reads + 17 writes: reproduces the paper's 133 GB per 50
	// steps on a 256x256x64 grid (80 * 33.55 MB * 50 = 134 GB).
	if got := OriginalTraversals(&prog.Program); got != 80 {
		t.Fatalf("OriginalTraversals = %d, want 80", got)
	}
}

func TestUsefulFlops(t *testing.T) {
	prog := mpdata.NewProgram()
	domain := grid.Sz(1024, 512, 64)
	// 229 flops/cell * 2^25 cells = 7.684 Gflop per step.
	got := UsefulFlopsPerStep(&prog.Program, domain)
	want := 229.0 * float64(domain.Cells())
	if got != want {
		t.Fatalf("UsefulFlopsPerStep = %v, want %v", got, want)
	}
}
