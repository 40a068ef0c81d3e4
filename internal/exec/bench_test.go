package exec

import (
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// BenchmarkScheduleBuild measures the plan-time cost of compiling a full
// one-step execution schedule (region decomposition, interior/border-piece
// splits, barrier placement) on a two-node machine — the price paid once per
// Runner so the steady-state loop pays none of it. One arm per execution
// shape, all through the single compileSchedule entry point: compile cost is
// the only time the shape of the sweeper list can move.
func BenchmarkScheduleBuild(b *testing.B) {
	domain := grid.Sz(128, 64, 16)
	m, err := topology.UV2000(2)
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name string
		cfg  Config
	}{
		{"islands", Config{Strategy: IslandsOfCores}},
		{"plus31d", Config{Strategy: Plus31D}},
		{"core-islands", Config{Strategy: IslandsOfCores, CoreIslands: true}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			state := mpdata.NewState(domain)
			state.SetGaussian(64, 32, 8, 4, 1, 0.1)
			state.SetUniformVelocity(0.2, 0.1, 0.05)
			prog := mpdata.NewProgram()
			cfg := arm.cfg
			cfg.Machine, cfg.Boundary, cfg.Steps, cfg.BlockI = m, stencil.Clamp, 1, 16
			r, err := NewRunner(cfg, prog, state.InputMap(), mpdata.InPsi)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			out := state.InputMap()[mpdata.InPsi]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := compileSchedule(r.plan, prog, r.haloEnvs, out, mpdata.InPsi, r.halo, "")
				if err != nil {
					b.Fatal(err)
				}
				if len(s.items) == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

// BenchmarkPublish isolates the feedback-publish cost of the island
// strategies at the compute-benchmark grid size: one step of islands and of
// core sub-islands, both publishing by the per-island buffer swap plus
// O(halo surface) strips. halo-bytes/step against the parts' bytes shows what
// the exchange moves instead of whole parts. (The copy publish remains only as
// the fallback of parts narrower than the step halo, so it has no arm of the
// same geometry to compare with.)
func BenchmarkPublish(b *testing.B) {
	domain := grid.Sz(128, 64, 16)
	m, err := topology.UV2000(2)
	if err != nil {
		b.Fatal(err)
	}
	arms := []struct {
		name        string
		coreIslands bool
	}{
		{"islands/halo-strip", false},
		{"core-islands/halo-strip", true},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			state := mpdata.NewState(domain)
			state.SetGaussian(64, 32, 8, 4, 1, 0.1)
			state.SetUniformVelocity(0.2, 0.1, 0.05)
			r, err := NewRunner(Config{
				Machine: m, Strategy: IslandsOfCores, CoreIslands: arm.coreIslands,
				Boundary: stencil.Clamp, Steps: 1, BlockI: 16,
			}, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
			if err != nil {
				b.Fatal(err)
			}
			defer r.Close()
			st := r.Schedule().Stats()
			if st.Feedback != FeedbackSwapHalo {
				b.Fatalf("feedback mode = %v (reason %q), want swap+halo", st.Feedback, st.FallbackReason)
			}
			if err := r.Run(); err != nil { // warm up first-touch and lazy init
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.Run(); err != nil {
					b.Fatal(err)
				}
			}
			var partBytes int64
			for _, p := range r.plan.parts {
				partBytes += int64(p.Cells()) * grid.CellBytes
			}
			b.ReportMetric(float64(st.HaloBytes), "halo-bytes/step")
			b.ReportMetric(float64(partBytes), "part-bytes/step")
		})
	}
}
