package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// 2D shallow-water equations in flux form, advanced by a Lax-Friedrichs
// step — the nonlinear, multi-component workload. The three conserved
// unknowns (h, hu, hv) pack along the k axis (NK must be exactly 3, the
// component-axis convention of docs/SOLVERS.md). The stage DAG is the
// catalog's widest: two sibling flux stages (fx, gy) both read the packed
// state column, and the combiner stage reads the state plus both flux
// fields at neighbor offsets — a diamond, not a chain, so fusion and halo
// composition are exercised on branching structure.

// Packed component indices along k.
const (
	sweH  = 0 // water depth h
	sweHU = 1 // x momentum h·u
	sweHV = 2 // y momentum h·v
	sweNC = 3
)

// sweG is the (scaled) gravitational constant and sweDtDx the time step over
// cell size; with depth near 1 the gravity-wave speed is ~1, so dt/dx = 0.2
// sits comfortably inside the Lax-Friedrichs stability bound.
const (
	sweG    = 1.0
	sweDtDx = 0.2
)

const sweIn = "u"

func init() {
	columnOffsets := make([]stencil.Offset, 0, 2*sweNC-1)
	for dk := -(sweNC - 1); dk <= sweNC-1; dk++ {
		columnOffsets = append(columnOffsets, stencil.Offset{DK: dk})
	}
	iNbrs := []stencil.Offset{{DI: -1}, {DI: 1}}
	jNbrs := []stencil.Offset{{DJ: -1}, {DJ: 1}}
	cross := []stencil.Offset{{DI: -1}, {DI: 1}, {DJ: -1}, {DJ: 1}}
	fluxInputs := []stencil.Input{{From: sweIn, Offsets: columnOffsets}}
	fluxStage := func(name string, flux func(h, hu, hv float64) [sweNC]float64) stencil.KernelStage {
		slow := func(env *stencil.Env, r grid.Region) {
			u, out := env.Field(sweIn), env.Field(name)
			stencil.ForEach(r, func(i, j, c int) {
				out.Set(i, j, c, flux(u.At(i, j, sweH), u.At(i, j, sweHU), u.At(i, j, sweHV))[c])
			})
		}
		// Column-pointwise and row-capable: the three conserved components
		// are read once per column, by absolute index, and the column's
		// flux is evaluated once.
		fast := func(env *stencil.Env, r grid.Region) {
			u, out := env.Field(sweIn).Data, env.Field(name).Data
			stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
				col := base - r.K0
				f := flux(u[col+sweH], u[col+sweHU], u[col+sweHV])
				copy(out[base:base+r.K1-r.K0], f[r.K0:r.K1])
			})
		}
		return stencil.KernelStage{
			Stage:  stencil.Stage{Name: name, Inputs: fluxInputs, Flops: 6},
			Kernel: stencil.SplitKernel(fluxInputs, fast, slow), Fast: fast, Slow: slow, Rows: true,
		}
	}
	updateInputs := []stencil.Input{
		{From: sweIn, Offsets: cross},
		{From: "fx", Offsets: iNbrs},
		{From: "gy", Offsets: jNbrs},
	}
	updateSlow := func(env *stencil.Env, r grid.Region) {
		u, fx, gy := env.Field(sweIn), env.Field("fx"), env.Field("gy")
		out := env.Field("unew")
		stencil.ForEach(r, func(i, j, c int) {
			out.Set(i, j, c, sweUpdateAt(env, u, fx, gy, i, j, c))
		})
	}
	// The combiner reads nothing across a k face and the same way at every
	// component, so it visits by runs.
	updateFast := func(env *stencil.Env, r grid.Region) {
		u, fx, gy := env.Field(sweIn).Data, env.Field("fx").Data, env.Field("gy").Data
		out := env.Field("unew").Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		stencil.ForEachRun(env.Domain, r, func(n0, n1 int) {
			m := n1 - n0
			row := out[n0:n1:n1]
			uim, uip := u[n0+siN:n0+siN+m], u[n0+siP:n0+siP+m]
			ujm, ujp := u[n0+sjN:n0+sjN+m], u[n0+sjP:n0+sjP+m]
			fxm, fxp := fx[n0+siN:n0+siN+m], fx[n0+siP:n0+siP+m]
			gym, gyp := gy[n0+sjN:n0+sjN+m], gy[n0+sjP:n0+sjP+m]
			for x := range row {
				row[x] = sweUpdate(uim[x], uip[x], ujm[x], ujp[x], fxm[x], fxp[x], gym[x], gyp[x])
			}
		})
	}
	stages := []stencil.KernelStage{
		fluxStage("fx", sweFluxX),
		fluxStage("gy", sweFluxY),
		{
			Stage:  stencil.Stage{Name: "unew", Inputs: updateInputs, Flops: 10},
			Kernel: stencil.SplitKernel(updateInputs, updateFast, updateSlow), Fast: updateFast, Slow: updateSlow, Rows: true,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("shallow-water", []string{sweIn}, "unew", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = sweIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "swe",
		Description: "2D shallow-water, Lax-Friedrichs flux form (h, hu, hv packed along k)",
		CheckDomain: requireNK(sweNC, "the conserved components h, hu, hv pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, sweIn, sweIn), nil
		},
		SetProblem: func(st *State) { sweSetProblem(st.Output(), st.Domain) },
		Reference:  sweReference,
	})
}

// sweFluxX returns the x flux F(U) of a column holding depth h and momenta
// hu, hv, one value per packed component: the one per-column function of the
// fx stage's fast and slow paths and of the reference.
func sweFluxX(h, hu, hv float64) [sweNC]float64 {
	return [sweNC]float64{sweH: hu, sweHU: hu*hu/h + 0.5*sweG*h*h, sweHV: hu * hv / h}
}

// sweFluxY returns the y flux G(U) of a column (see sweFluxX).
func sweFluxY(h, hu, hv float64) [sweNC]float64 {
	return [sweNC]float64{sweH: hv, sweHU: hu * hv / h, sweHV: hv*hv/h + 0.5*sweG*h*h}
}

// sweUpdate is the Lax-Friedrichs combiner at one cell from the state at its
// four neighbours (-i, +i, -j, +j) and the fluxes across them: the
// 4-neighbour average minus central flux differences. It is the one per-cell
// function of the combiner's fast and slow paths and of the reference.
func sweUpdate(uim, uip, ujm, ujp, fxm, fxp, gym, gyp float64) float64 {
	avg := 0.25 * (uim + uip + ujm + ujp)
	dfx := fxp - fxm
	dgy := gyp - gym
	return avg - 0.5*sweDtDx*dfx - 0.5*sweDtDx*dgy
}

// sweUpdateAt is sweUpdate at cell (i,j,c), its neighbours read through the
// environment's boundary condition.
func sweUpdateAt(env *stencil.Env, u, fx, gy *grid.Field, i, j, c int) float64 {
	return sweUpdate(env.AtP(u, i-1, j, c), env.AtP(u, i+1, j, c),
		env.AtP(u, i, j-1, c), env.AtP(u, i, j+1, c),
		env.AtP(fx, i-1, j, c), env.AtP(fx, i+1, j, c),
		env.AtP(gy, i, j-1, c), env.AtP(gy, i, j+1, c))
}

// sweSetProblem writes the standard dam-break-like problem: still water of
// unit depth with a centered Gaussian mound, zero momentum.
func sweSetProblem(u *grid.Field, domain grid.Size) {
	ci := float64(domain.NI) / 2
	cj := float64(domain.NJ) / 2
	sigma := math.Max(float64(min(domain.NI, domain.NJ))/8, 1)
	u.FillFunc(func(i, j, c int) float64 {
		if c != sweH {
			return 0
		}
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		return 1 + 0.25*math.Exp(-(di*di+dj*dj)/(2*sigma*sigma))
	})
}

// sweReference advances the packed state sequentially with the identical
// per-cell float sequence: flux passes into scratch, then the combiner.
func sweReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	u := st.Output()
	fx := grid.NewField("swe.ref.fx", st.Domain)
	gy := grid.NewField("swe.ref.gy", st.Domain)
	next := grid.NewField("swe.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, c int) {
			fx.Set(i, j, c, sweFluxX(u.At(i, j, sweH), u.At(i, j, sweHU), u.At(i, j, sweHV))[c])
		})
		stencil.ForEach(whole, func(i, j, c int) {
			gy.Set(i, j, c, sweFluxY(u.At(i, j, sweH), u.At(i, j, sweHU), u.At(i, j, sweHV))[c])
		})
		stencil.ForEach(whole, func(i, j, c int) {
			next.Set(i, j, c, sweUpdateAt(env, u, fx, gy, i, j, c))
		})
		u.CopyFrom(next)
	}
	return nil
}
