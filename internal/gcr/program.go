package gcr

import (
	"fmt"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// This file is the compiled-path face of the package (docs/SOLVERS.md): the
// damped-Jacobi smoother — the preconditioner of EULAG-style preconditioned
// GCR (reference [3]) — expressed as a stencil program so the islands
// executor compiles, fuses, halo-exchanges and temporally blocks it like any
// other catalog solver. The full GCR(k) Krylov iteration stays in gcr.go as
// a sequential solver: its global inner products need a reduction every
// iteration and do not fit a per-step stage DAG.

// Step-input names of the smoother program.
const (
	// InX is the evolving iterate (the program's feedback field).
	InX = "x"
	// InB is the right-hand side.
	InB = "b"
)

// Omega is the damped-Jacobi relaxation weight (2/3, the classic choice
// that damps all high-frequency error modes of the 7-point operator).
const Omega = 2.0 / 3

// NewSmootherProgram builds one damped-Jacobi sweep on the 7-point operator
// A = 6·c − Σ neighbours (boundary reads resolved by the executor's
// boundary condition) as a two-stage program:
//
//	ax   = A·x
//	xnew = x + (Omega/6)·(b − ax)
//
// The iterate is the feedback input, so the executor's swap/halo/k-step
// machinery advances the relaxation; b rides along as a constant step input.
func NewSmootherProgram() (*stencil.KernelProgram, error) {
	sevenPoint := []stencil.Offset{
		{DI: 0, DJ: 0, DK: 0},
		{DI: -1}, {DI: 1},
		{DJ: -1}, {DJ: 1},
		{DK: -1}, {DK: 1},
	}
	point := []stencil.Offset{{}}
	axInputs := []stencil.Input{{From: InX, Offsets: sevenPoint}}
	axSlow := func(env *stencil.Env, r grid.Region) {
		x, out := env.Field(InX), env.Field("ax")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, applyA(env, x, i, j, k))
		})
	}
	// Row-capable: the cells at the k faces are computed inside their rows
	// (stencil.ForEachStarRun).
	axFast := func(env *stencil.Env, r grid.Region) {
		x, out := env.Field(InX).Data, env.Field("ax").Data
		stencil.ForEachStarRun(env, r, func(n0, n1 int, d stencil.StarSteps) {
			m := n1 - n0
			row := out[n0:n1:n1]
			c := x[n0 : n0+m]
			im, ip := x[n0+d[0]:n0+d[0]+m], x[n0+d[1]:n0+d[1]+m]
			jm, jp := x[n0+d[2]:n0+d[2]+m], x[n0+d[3]:n0+d[3]+m]
			km, kp := x[n0+d[4]:n0+d[4]+m], x[n0+d[5]:n0+d[5]+m]
			for n := range row {
				row[n] = opA(c[n], im[n], ip[n], jm[n], jp[n], km[n], kp[n])
			}
		})
	}
	xnewInputs := []stencil.Input{
		{From: "ax", Offsets: point},
		{From: InX, Offsets: point},
		{From: InB, Offsets: point},
	}
	xnewSlow := func(env *stencil.Env, r grid.Region) {
		ax, x, b := env.Field("ax"), env.Field(InX), env.Field(InB)
		out := env.Field("xnew")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, relax(x.At(i, j, k), b.At(i, j, k), ax.At(i, j, k)))
		})
	}
	xnewFast := func(env *stencil.Env, r grid.Region) {
		ax, x, b := env.Field("ax").Data, env.Field(InX).Data, env.Field(InB).Data
		out := env.Field("xnew").Data
		stencil.ForEachRun(env.Domain, r, func(n0, n1 int) {
			m := n1 - n0
			row := out[n0:n1:n1]
			xs, bs, as := x[n0:n0+m], b[n0:n0+m], ax[n0:n0+m]
			for n := range row {
				row[n] = relax(xs[n], bs[n], as[n])
			}
		})
	}
	stages := []stencil.KernelStage{
		{
			Stage:  stencil.Stage{Name: "ax", Inputs: axInputs, Flops: 7},
			Kernel: stencil.SplitKernel(axInputs, axFast, axSlow), Fast: axFast, Slow: axSlow, Rows: true,
		},
		{
			Stage:  stencil.Stage{Name: "xnew", Inputs: xnewInputs, Flops: 4},
			Kernel: stencil.SplitKernel(xnewInputs, xnewFast, xnewSlow), Fast: xnewFast, Slow: xnewSlow, Rows: true,
		},
	}
	kp, err := stencil.BuildProgram("gcr-smoother", []string{InX, InB}, "xnew", stages)
	if err != nil {
		return nil, err
	}
	kp.Program.Feedback = InX
	return kp, nil
}

// opA is the 7-point operator at one cell from its value and its six face
// neighbours (-i, +i, -j, +j, -k, +k): the one per-cell function of the
// program's fast and slow paths and of SmootherReference, so every side
// performs the identical float operation sequence (the bit-identity
// contract).
func opA(c, im, ip, jm, jp, km, kp float64) float64 {
	return 6*c - im - ip - jm - jp - km - kp
}

// applyA is opA at cell (i,j,k) of x, its neighbours read through the
// environment's boundary condition.
func applyA(env *stencil.Env, x *grid.Field, i, j, k int) float64 {
	return opA(x.At(i, j, k),
		env.AtP(x, i-1, j, k), env.AtP(x, i+1, j, k),
		env.AtP(x, i, j-1, k), env.AtP(x, i, j+1, k),
		env.AtP(x, i, j, k-1), env.AtP(x, i, j, k+1))
}

// relax is the damped-Jacobi update at one cell (see opA).
func relax(x, b, ax float64) float64 { return x + Omega/6*(b-ax) }

// SmootherReference advances x by the given number of damped-Jacobi sweeps
// sequentially — two whole-domain passes per sweep, mirroring the program's
// stage split — and is the bit-identity oracle of the compiled smoother.
func SmootherReference(x, b *grid.Field, sweeps int, bc stencil.Boundary) error {
	if x.Size != b.Size {
		return fmt.Errorf("gcr: x is %v but b is %v", x.Size, b.Size)
	}
	env := &stencil.Env{Domain: x.Size, BC: bc}
	ax := grid.NewField("gcr.ref.ax", x.Size)
	next := grid.NewField("gcr.ref.next", x.Size)
	whole := grid.WholeRegion(x.Size)
	for s := 0; s < sweeps; s++ {
		stencil.ForEach(whole, func(i, j, k int) {
			ax.Set(i, j, k, applyA(env, x, i, j, k))
		})
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, relax(x.At(i, j, k), b.At(i, j, k), ax.At(i, j, k)))
		})
		x.CopyFrom(next)
	}
	return nil
}
