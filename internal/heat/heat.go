// Package heat provides a homogeneous stencil program — k fused iterations
// of 7-point Jacobi diffusion — as a counterpoint to MPDATA's heterogeneous
// stage graph. The paper positions itself against overlapped tiling for
// homogeneous stencils (Guo et al. [6], Zhou et al. [26], §1): this package
// reproduces that baseline inside the same framework, so the islands
// machinery (halo analysis, trapezoids, executors, machine model) can be
// compared across the two regimes.
package heat

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// In is the program's single step input.
const In = "t0"

// Alpha is the diffusion coefficient of the Jacobi update (stability
// requires Alpha <= 1/6 in 3D).
const Alpha = 1.0 / 8

// sevenPoint is the read pattern of every Jacobi stage.
var sevenPoint = []stencil.Offset{
	{DI: 0, DJ: 0, DK: 0},
	{DI: -1}, {DI: 1},
	{DJ: -1}, {DJ: 1},
	{DK: -1}, {DK: 1},
}

// NewProgram builds k fused Jacobi iterations: stage s computes
//
//	t[s] = t[s-1] + alpha * (sum of 6 neighbours - 6*center)
//
// Each stage has the same 7-point pattern — a homogeneous chain whose
// backward halo analysis produces the classic overlapped-tiling trapezoids
// (one cell per side per fused step).
func NewProgram(k int) (*stencil.KernelProgram, error) {
	if k < 1 {
		return nil, fmt.Errorf("heat: need at least one iteration, got %d", k)
	}
	var stages []stencil.KernelStage
	prev := In
	for s := 1; s <= k; s++ {
		name := fmt.Sprintf("t%d", s)
		stages = append(stages, jacobiStage(name, prev))
		prev = name
	}
	kp, err := stencil.BuildProgram(fmt.Sprintf("heat-jacobi%d", k), []string{In}, prev, stages)
	if err != nil {
		return nil, err
	}
	// The output becomes the next step's t0: declaring the feedback input
	// lets the executor temporally block the iteration (exec.Config.KSteps).
	kp.Program.Feedback = In
	return kp, nil
}

// jacobiStage builds one Jacobi iteration of field in into field name. Its
// fast path is row-capable: it computes the cells at the k faces inside their
// rows (stencil.ForEachStarRun).
func jacobiStage(name, in string) stencil.KernelStage {
	inputs := []stencil.Input{{From: in, Offsets: sevenPoint}}
	slow := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(in), env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, jacobiAt(env, src, i, j, k))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(in).Data, env.Field(name).Data
		stencil.ForEachStarRun(env, r, func(n0, n1 int, d stencil.StarSteps) {
			// Re-sliced runs: equal lengths let the compiler drop the
			// per-element bounds checks in the loop body.
			m := n1 - n0
			row := out[n0:n1:n1]
			c := src[n0 : n0+m]
			im, ip := src[n0+d[0]:n0+d[0]+m], src[n0+d[1]:n0+d[1]+m]
			jm, jp := src[n0+d[2]:n0+d[2]+m], src[n0+d[3]:n0+d[3]+m]
			km, kp := src[n0+d[4]:n0+d[4]+m], src[n0+d[5]:n0+d[5]+m]
			for x := range row {
				row[x] = jacobi(c[x], im[x], ip[x], jm[x], jp[x], km[x], kp[x])
			}
		})
	}
	return stencil.KernelStage{
		Stage: stencil.Stage{
			Name:   name,
			Inputs: inputs,
			Flops:  9, // 5 adds + center scale + alpha multiply + update
		},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow, Rows: true,
	}
}

// jacobi is one Jacobi update of a cell from its value and its six face
// neighbours (-i, +i, -j, +j, -k, +k): the one per-cell function of the
// fast and slow paths and of Reference, so all three perform the identical
// float operation sequence.
func jacobi(c, im, ip, jm, jp, km, kp float64) float64 {
	lap := im + ip + jm + jp + km + kp - 6*c
	return c + Alpha*lap
}

// jacobiAt is jacobi at cell (i,j,k) of f, its neighbours read through the
// environment's boundary condition.
func jacobiAt(env *stencil.Env, f *grid.Field, i, j, k int) float64 {
	return jacobi(f.At(i, j, k),
		env.AtP(f, i-1, j, k), env.AtP(f, i+1, j, k),
		env.AtP(f, i, j-1, k), env.AtP(f, i, j+1, k),
		env.AtP(f, i, j, k-1), env.AtP(f, i, j, k+1))
}

// Reference advances the field by steps*k Jacobi iterations sequentially
// (one iteration at a time over the whole domain) under the given boundary
// condition — the check for the fused program's executors.
func Reference(t0 *grid.Field, iterations int, bc stencil.Boundary) *grid.Field {
	cur := t0.Clone()
	next := grid.NewField("next", t0.Size)
	env := &stencil.Env{Domain: t0.Size, BC: bc}
	for it := 0; it < iterations; it++ {
		stencil.ForEach(grid.WholeRegion(t0.Size), func(i, j, k int) {
			next.Set(i, j, k, jacobiAt(env, cur, i, j, k))
		})
		cur, next = next, cur
	}
	return cur
}
