package mpdata

import (
	"fmt"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// BenchmarkStage measures each of the 17 kernels over an interior region,
// exercising the stride-based fast paths. Cell rates document the per-stage
// cost structure: the pseudo-velocity stages dominate, each with one
// division per cell over its common denominator (five before; NUMERICS.md
// §3).
func BenchmarkStage(b *testing.B) {
	domain := grid.Sz(64, 64, 64)
	state := NewState(domain)
	state.SetGaussian(32, 32, 32, 8, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.15, -0.1)
	kp := NewProgram()
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		b.Fatal(err)
	}
	whole := grid.WholeRegion(domain)
	// Populate all stage outputs once so every kernel has valid inputs.
	for _, k := range kp.Kernels {
		k(env, whole)
	}
	region := grid.Box(4, 60, 4, 60, 4, 60)
	for s, kern := range kp.Kernels {
		kern := kern
		b.Run(fmt.Sprintf("%02d-%s", s+1, kp.Stages[s].Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kern(env, region)
			}
			b.ReportMetric(float64(region.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}

// BenchmarkFullStep measures one complete 17-stage step (sequential).
func BenchmarkFullStep(b *testing.B) {
	state := NewState(grid.Sz(64, 64, 32))
	state.SetGaussian(32, 32, 16, 6, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.1, 0.05)
	solver, err := NewSolver(state)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Step(1)
	}
	cells := float64(state.Domain.Cells())
	b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	b.ReportMetric(cells*229*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// BenchmarkFusedRows measures each registered group kernel on the shapes the
// repository's benchmark runs (bench/: standard problem, clamp): 128x128x16,
// the resident-sweep grid and the streamed tiles' depth, and 128x128x8, the
// depth of serve-mix's mpdata classes — the (i,j) interior over the whole k
// range, rows whose two end cells read across a k face. ns/cell, arms (under
// nk16/ and nk8/):
//
//	separate  the member stages' scalar fast paths back to back, piecewise
//	          (what fusion saves)
//	scalar    the kernel's scalar body, whole rows
//	pieces    its AVX2 body piecewise, as a schedule ran it before the kernels
//	          were row-capable: the k interior (NK-2-cell rows), then the k = 0
//	          and k = NK-1 faces as k-pinned pieces of one-cell rows
//	faces     those two pieces alone, per face cell
//	rows      the AVX2 body once over the whole rows, end cells riding along
//
// pieces, faces and rows run the scalar body where there is no AVX2.
func BenchmarkFusedRows(b *testing.B) {
	scalar, vector := programWithBody(b, false), programWithBody(b, vectorAvailable)
	for _, nk := range []int{16, 8} {
		b.Run(fmt.Sprintf("nk%d", nk), func(b *testing.B) { benchFusedRows(b, scalar, vector, grid.Sz(128, 128, nk)) })
	}
}

func benchFusedRows(b *testing.B, scalar, vector *stencil.KernelProgram, domain grid.Size) {
	state := NewState(domain)
	state.SetStandardProblem()
	env, err := stencil.NewEnv(&scalar.Program, domain, state.InputMap())
	if err != nil {
		b.Fatal(err)
	}
	env.BC = stencil.Clamp
	whole := grid.WholeRegion(domain)
	for _, k := range scalar.Kernels {
		k(env, whole)
	}
	type visit struct {
		env *stencil.Env
		reg grid.Region
	}
	for fi := range scalar.Fused {
		fk := &scalar.Fused[fi]
		ext := fusedExtent(scalar, fk)
		rows, _ := stencil.RowPieces(whole, ext, domain)
		interior, pieces := stencil.BorderPieces(rows, ext, domain)
		piecewise, faces := []visit{{env, interior}}, []visit(nil)
		for _, pc := range pieces {
			faces = append(faces, visit{env.BindPiece(pc), pc.Region})
		}
		piecewise = append(piecewise, faces...)
		arm := func(name string, visits []visit, kernels ...stencil.Kernel) {
			cells := 0
			for _, v := range visits {
				cells += v.reg.Cells()
			}
			if cells == 0 {
				return // a pointwise kernel has no faces
			}
			b.Run(strings.Join(fk.Stages, "+")+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, kern := range kernels {
						for _, v := range visits {
							kern(v.env, v.reg)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(cells)*float64(b.N)), "ns/cell")
			})
		}
		var members []stencil.Kernel
		for _, name := range fk.Stages {
			fast, _, ok := scalar.SplitPaths(scalar.StageIndex(name))
			if !ok {
				b.Fatalf("stage %q has no split fast path", name)
			}
			members = append(members, fast)
		}
		arm("separate", piecewise, members...)
		arm("scalar", []visit{{env, rows}}, fk.Fast)
		arm("pieces", piecewise, vector.Fused[fi].Fast)
		arm("faces", faces, vector.Fused[fi].Fast)
		arm("rows", []visit{{env, rows}}, vector.Fused[fi].Fast)
	}
}

// BenchmarkBoundaryShare contrasts whole-domain execution (interior fast
// path + boundary shell) against the interior alone, quantifying the
// boundary path's cost share.
func BenchmarkBoundaryShare(b *testing.B) {
	domain := grid.Sz(48, 48, 48)
	state := NewState(domain)
	state.SetGaussian(24, 24, 24, 6, 1, 0.1)
	state.SetUniformVelocity(0.2, 0.1, 0.05)
	kp := NewProgram()
	env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
	if err != nil {
		b.Fatal(err)
	}
	whole := grid.WholeRegion(domain)
	for _, k := range kp.Kernels {
		k(env, whole)
	}
	for _, reg := range []struct {
		name string
		r    grid.Region
	}{
		{"whole", whole},
		{"interior", grid.Box(4, 44, 4, 44, 4, 44)},
	} {
		b.Run(reg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, k := range kp.Kernels {
					k(env, reg.r)
				}
			}
			b.ReportMetric(float64(reg.r.Cells())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
		})
	}
}
