// Package mpdata implements the Multidimensional Positive Definite Advection
// Transport Algorithm (MPDATA) as a heterogeneous stencil program of 17
// dependent stages per time step, matching the structure the paper's MPDATA
// code exposes: three donor-cell fluxes, the first-order upwind update,
// local extrema for the non-oscillatory limiter, three antidiffusive
// (pseudo-velocity) stages with cross terms, limiter in/out flux sums, the
// two limiting coefficients, three limited corrective fluxes, and the final
// update.
//
// The scheme is the standard two-pass non-oscillatory MPDATA for
// positive-definite scalars (Smolarkiewicz & Margolin 1998; Smolarkiewicz
// 2006) on a 3D grid; NewProgramWithOptions additionally builds the
// higher-order (IORD > 2) and unlimited variants. Velocities are face
// Courant numbers: U1(i,j,k) lives on the face between cells (i,j,k) and
// (i+1,j,k), and analogously for U2 (j faces) and U3 (k faces).
package mpdata

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Field names used by the program. The five step inputs and one output match
// the paper's description: "a single MPDATA time step loads five 3D input
// arrays from the main memory, and saves one output 3D array".
const (
	InPsi = "psi" // advected scalar
	InU1  = "u1"  // Courant number on i faces
	InU2  = "u2"  // Courant number on j faces
	InU3  = "u3"  // Courant number on k faces
	InH   = "h"   // generalized density (Jacobian); 1 for Cartesian grids

	OutPsi = "psiNew"
)

// Eps is the small constant preventing division by zero in ratio terms,
// as in the original MPDATA formulation.
const Eps = 1e-15

// StepInputs lists the five input arrays of one MPDATA time step.
func StepInputs() []string { return []string{InPsi, InU1, InU2, InU3, InH} }

// donor is the first-order upwind (donor-cell) flux across a face with
// left state a, right state b and face Courant number u.
func donor(a, b, u float64) float64 {
	return maxf(u, 0)*a + minf(u, 0)*b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}

func off(di, dj, dk int) stencil.Offset { return stencil.Offset{DI: di, DJ: dj, DK: dk} }

// center is the single zero offset.
var center = []stencil.Offset{off(0, 0, 0)}

// NewProgram builds the paper's 17-stage MPDATA kernel program (IORD = 2,
// non-oscillatory).
//
// Flop counts are mechanical per-cell operation counts of each kernel
// (min/max/abs counted as one op each, as hardware executes them); the
// program total is 229 flops per cell per time step — consistent with the
// sustained-performance accounting of the paper's Table 4.
func NewProgram() *stencil.KernelProgram {
	kp, err := NewProgramWithOptions(DefaultOptions())
	if err != nil {
		panic(err) // static program; construction cannot fail
	}
	return kp
}

// fluxStage builds one of the three donor-cell flux stages (stages 1-3).
func fluxStage(name, uName string, di, dj, dk int) stencil.KernelStage {
	return fluxStageNamed(name, uName, di, dj, dk, InPsi)
}

// fluxStageNamed builds a donor-cell flux of the scalar field psiName
// advected by the velocity field uName: out(i,j,k) is the upwind flux
// across the face between the cell and its +d neighbour.
func fluxStageNamed(name, uName string, di, dj, dk int, psiName string) stencil.KernelStage {
	inputs := []stencil.Input{
		{From: psiName, Offsets: []stencil.Offset{off(0, 0, 0), off(di, dj, dk)}},
		{From: uName, Offsets: center},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		psi, u, out := env.Field(psiName), env.Field(uName), env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, donor(psi.At(i, j, k), env.AtP(psi, i+di, j+dj, k+dk), u.At(i, j, k)))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		psi := env.Field(psiName).Data
		u := env.Field(uName).Data
		out := env.Field(name).Data
		d := env.OffsetStride(off(di, dj, dk))
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			// Re-sliced rows: the full-slice expression fixes len == cap so
			// the compiler drops per-element bounds checks in the loop body.
			row := out[base : base+nk : base+nk]
			p0 := psi[base : base+nk]
			pd := psi[base+d : base+d+nk]
			w := u[base : base+nk]
			for x := range row {
				row[x] = donor(p0[x], pd[x], w[x])
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 5},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}

// psiStarStage is stage 4: the first-order upwind update.
func psiStarStage() stencil.KernelStage {
	return psiNewStageNamed("psiStar", InPsi, "f1", "f2", "f3")
}

// extremaStageNamed builds the 7-point local extremum of both psi and the
// current iterate, used by the non-oscillatory limiter.
func extremaStageNamed(name string, isMax bool, curName string) stencil.KernelStage {
	sevenPoint := []stencil.Offset{
		off(0, 0, 0),
		off(-1, 0, 0), off(1, 0, 0),
		off(0, -1, 0), off(0, 1, 0),
		off(0, 0, -1), off(0, 0, 1),
	}
	pick := minf
	if isMax {
		pick = maxf
	}
	inputs := []stencil.Input{
		{From: InPsi, Offsets: sevenPoint},
		{From: curName, Offsets: sevenPoint},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		psi, cur, out := env.Field(InPsi), env.Field(curName), env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			m := pick(psi.At(i, j, k), cur.At(i, j, k))
			for _, o := range sevenPoint[1:] {
				m = pick(m, env.AtP(psi, i+o.DI, j+o.DJ, k+o.DK))
				m = pick(m, env.AtP(cur, i+o.DI, j+o.DJ, k+o.DK))
			}
			out.Set(i, j, k, m)
		})
	}
	// Two specialized fast paths: the generic `pick` function pointer in
	// the 13-comparison inner loop costs ~5x, so min and max are inlined.
	fast := func(env *stencil.Env, r grid.Region) {
		psi := env.Field(InPsi).Data
		cur := env.Field(curName).Data
		out := env.Field(name).Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		skN, skP := env.Step(2, -1), env.Step(2, 1)
		nk := r.K1 - r.K0
		if isMax {
			stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
				for n := base; n < base+nk; n++ {
					m := psi[n]
					for _, v := range [13]float64{
						cur[n], psi[n+siN], cur[n+siN], psi[n+siP], cur[n+siP],
						psi[n+sjN], cur[n+sjN], psi[n+sjP], cur[n+sjP],
						psi[n+skN], cur[n+skN], psi[n+skP], cur[n+skP],
					} {
						if v > m {
							m = v
						}
					}
					out[n] = m
				}
			})
			return
		}
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			for n := base; n < base+nk; n++ {
				m := psi[n]
				for _, v := range [13]float64{
					cur[n], psi[n+siN], cur[n+siN], psi[n+siP], cur[n+siP],
					psi[n+sjN], cur[n+sjN], psi[n+sjP], cur[n+sjP],
					psi[n+skN], cur[n+skN], psi[n+skP], cur[n+skP],
				} {
					if v < m {
						m = v
					}
				}
				out[n] = m
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 13},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}

// pseudoVelStageNamed builds the antidiffusive velocity in direction dir
// (0=i, 1=j, 2=k) for the iterate curName advected by the velocity fields
// (v1Name, v2Name, v3Name), including the two cross-derivative terms that
// make these the widest stencils of the program:
//
//	v = |U|·(1 − |U|/h̄)·A − U·(Ū_a·B_a + Ū_b·B_b)/h̄
//
// with A = x_A/y_A the normalized gradient of the iterate along dir at the
// face, B_a = ½·x_a/y_a and B_b = ½·x_b/y_b the normalized cross gradients,
// and Ū the four-point face averages of the transverse velocities. The three
// ratios and both 1/h̄ are taken over one common denominator,
//
//	v = (|U|·(h̄ − |U|)·x_A·y_a·y_b − ½·U·(Ū_a·x_a·y_b + Ū_b·x_b·y_a)·y_A) / (h̄·y_A·y_a·y_b)
//
// so a face costs one division instead of five (docs/NUMERICS.md §3 gives its
// range and its drift from the five-division form). fusedPseudoVel and the
// AVX2 body evaluate exactly this association.
func pseudoVelStageNamed(name string, dir int, curName, v1Name, v2Name, v3Name string) stencil.KernelStage {
	// unit vectors: d is the stage direction, a and b the transverse ones.
	d := unit(dir)
	a := unit((dir + 1) % 3)
	b := unit((dir + 2) % 3)
	vNames := [3]string{v1Name, v2Name, v3Name}
	uName := vNames[dir]
	uaName := vNames[(dir+1)%3]
	ubName := vNames[(dir+2)%3]

	add := func(x, y stencil.Offset) stencil.Offset {
		return off(x.DI+y.DI, x.DJ+y.DJ, x.DK+y.DK)
	}
	neg := func(x stencil.Offset) stencil.Offset { return off(-x.DI, -x.DJ, -x.DK) }

	// iterate offsets: {0,+d} x {0,±a,±b}.
	var psOffs []stencil.Offset
	for _, base := range []stencil.Offset{off(0, 0, 0), d} {
		psOffs = append(psOffs, base, add(base, a), add(base, neg(a)), add(base, b), add(base, neg(b)))
	}
	// transverse velocity ua read at {0,+d} x {0,-a}; ub at {0,+d} x {0,-b}.
	uaOffs := []stencil.Offset{off(0, 0, 0), neg(a), d, add(d, neg(a))}
	ubOffs := []stencil.Offset{off(0, 0, 0), neg(b), d, add(d, neg(b))}

	inputs := []stencil.Input{
		{From: curName, Offsets: psOffs},
		{From: uName, Offsets: center},
		{From: uaName, Offsets: uaOffs},
		{From: ubName, Offsets: ubOffs},
		{From: InH, Offsets: []stencil.Offset{off(0, 0, 0), d}},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		ps := env.Field(curName)
		u, ua, ub := env.Field(uName), env.Field(uaName), env.Field(ubName)
		h, out := env.Field(InH), env.Field(name)
		at := func(f *grid.Field, base stencil.Offset, i, j, k int) float64 {
			return env.AtP(f, i+base.DI, j+base.DJ, k+base.DK)
		}
		stencil.ForEach(r, func(i, j, k int) {
			uf := u.At(i, j, k)
			hbar := 0.5 * (h.At(i, j, k) + at(h, d, i, j, k))

			p0 := ps.At(i, j, k)
			pd := at(ps, d, i, j, k)
			// A = xA/yA: normalized gradient along dir.
			xA, yA := pd-p0, pd+p0+Eps

			// B_a = ½·xa/ya: normalized cross gradient along a at the face.
			paP := at(ps, a, i, j, k) + at(ps, add(d, a), i, j, k)
			paM := at(ps, neg(a), i, j, k) + at(ps, add(d, neg(a)), i, j, k)
			xa, ya := paP-paM, paP+paM+Eps

			pbP := at(ps, b, i, j, k) + at(ps, add(d, b), i, j, k)
			pbM := at(ps, neg(b), i, j, k) + at(ps, add(d, neg(b)), i, j, k)
			xb, yb := pbP-pbM, pbP+pbM+Eps

			uaBar := 0.25 * (ua.At(i, j, k) + at(ua, neg(a), i, j, k) +
				at(ua, d, i, j, k) + at(ua, add(d, neg(a)), i, j, k))
			ubBar := 0.25 * (ub.At(i, j, k) + at(ub, neg(b), i, j, k) +
				at(ub, d, i, j, k) + at(ub, add(d, neg(b)), i, j, k))

			au, yab := absf(uf), ya*yb
			v := (au*(hbar-au)*xA*yab - 0.5*uf*(uaBar*xa*yb+ubBar*xb*ya)*yA) / (hbar * yA * yab)
			out.Set(i, j, k, v)
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		ps := env.Field(curName).Data
		u := env.Field(uName).Data
		ua := env.Field(uaName).Data
		ub := env.Field(ubName).Data
		h := env.Field(InH).Data
		out := env.Field(name).Data
		dom := env.Domain
		// Per-direction steps resolved by the environment: on a border-bound
		// env the +d / ±a / ±b displacements already encode the boundary
		// condition, and dimensions are resolved independently (as in AtP),
		// so composite offsets are sums of the per-direction steps.
		sd := env.OffsetStride(d)
		saP, saN := env.OffsetStride(a), env.OffsetStride(neg(a))
		sbP, sbN := env.OffsetStride(b), env.OffsetStride(neg(b))
		nk := r.K1 - r.K0
		stencil.ForEachRow(dom, r, func(_, _, base int) {
			for n := base; n < base+nk; n++ {
				uf := u[n]
				hbar := 0.5 * (h[n] + h[n+sd])

				p0, pd := ps[n], ps[n+sd]
				xA, yA := pd-p0, pd+p0+Eps

				paP := ps[n+saP] + ps[n+sd+saP]
				paM := ps[n+saN] + ps[n+sd+saN]
				xa, ya := paP-paM, paP+paM+Eps

				pbP := ps[n+sbP] + ps[n+sd+sbP]
				pbM := ps[n+sbN] + ps[n+sd+sbN]
				xb, yb := pbP-pbM, pbP+pbM+Eps

				uaBar := 0.25 * (ua[n] + ua[n+saN] + ua[n+sd] + ua[n+sd+saN])
				ubBar := 0.25 * (ub[n] + ub[n+sbN] + ub[n+sd] + ub[n+sd+sbN])

				au, yab := absf(uf), ya*yb
				out[n] = (au*(hbar-au)*xA*yab - 0.5*uf*(uaBar*xa*yb+ubBar*xb*ya)*yA) / (hbar * yA * yab)
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 34},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}

func unit(dir int) stencil.Offset {
	switch dir {
	case 0:
		return off(1, 0, 0)
	case 1:
		return off(0, 1, 0)
	default:
		return off(0, 0, 1)
	}
}

// limiterFluxStageNamed builds the total antidiffusive flux into (in=true)
// or out of (in=false) each cell, used by the non-oscillatory limiter
// denominators.
func limiterFluxStageNamed(name string, in bool, curName, v1Name, v2Name, v3Name string) stencil.KernelStage {
	faceOffs := func(d stencil.Offset) []stencil.Offset {
		return []stencil.Offset{off(0, 0, 0), off(-d.DI, -d.DJ, -d.DK)}
	}
	di, dj, dk := unit(0), unit(1), unit(2)
	psOffs := []stencil.Offset{
		off(0, 0, 0),
		off(-1, 0, 0), off(1, 0, 0),
		off(0, -1, 0), off(0, 1, 0),
		off(0, 0, -1), off(0, 0, 1),
	}
	inputs := []stencil.Input{
		{From: v1Name, Offsets: faceOffs(di)},
		{From: v2Name, Offsets: faceOffs(dj)},
		{From: v3Name, Offsets: faceOffs(dk)},
		{From: curName, Offsets: psOffs},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		v1, v2, v3 := env.Field(v1Name), env.Field(v2Name), env.Field(v3Name)
		ps, out := env.Field(curName), env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			var sum float64
			if in {
				// incoming: positive flux through the low faces plus
				// negative (inward) flux through the high faces.
				sum = maxf(env.AtP(v1, i-1, j, k), 0)*env.AtP(ps, i-1, j, k) -
					minf(v1.At(i, j, k), 0)*env.AtP(ps, i+1, j, k) +
					maxf(env.AtP(v2, i, j-1, k), 0)*env.AtP(ps, i, j-1, k) -
					minf(v2.At(i, j, k), 0)*env.AtP(ps, i, j+1, k) +
					maxf(env.AtP(v3, i, j, k-1), 0)*env.AtP(ps, i, j, k-1) -
					minf(v3.At(i, j, k), 0)*env.AtP(ps, i, j, k+1)
			} else {
				p0 := ps.At(i, j, k)
				sum = (maxf(v1.At(i, j, k), 0)-minf(env.AtP(v1, i-1, j, k), 0))*p0 +
					(maxf(v2.At(i, j, k), 0)-minf(env.AtP(v2, i, j-1, k), 0))*p0 +
					(maxf(v3.At(i, j, k), 0)-minf(env.AtP(v3, i, j, k-1), 0))*p0
			}
			out.Set(i, j, k, sum)
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		v1 := env.Field(v1Name).Data
		v2 := env.Field(v2Name).Data
		v3 := env.Field(v3Name).Data
		ps := env.Field(curName).Data
		out := env.Field(name).Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		skN, skP := env.Step(2, -1), env.Step(2, 1)
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			for n := base; n < base+nk; n++ {
				if in {
					out[n] = maxf(v1[n+siN], 0)*ps[n+siN] - minf(v1[n], 0)*ps[n+siP] +
						maxf(v2[n+sjN], 0)*ps[n+sjN] - minf(v2[n], 0)*ps[n+sjP] +
						maxf(v3[n+skN], 0)*ps[n+skN] - minf(v3[n], 0)*ps[n+skP]
				} else {
					p0 := ps[n]
					out[n] = (maxf(v1[n], 0)-minf(v1[n+siN], 0))*p0 +
						(maxf(v2[n], 0)-minf(v2[n+sjN], 0))*p0 +
						(maxf(v3[n], 0)-minf(v3[n+skN], 0))*p0
				}
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 17},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}

// betaStageNamed builds a limiter coefficient β↑ / β↓. The stage is
// pointwise, so the fast path covers every cell.
func betaStageNamed(name string, up bool, curName, extName, fluxName string) stencil.KernelStage {
	inputs := []stencil.Input{
		{From: extName, Offsets: center},
		{From: curName, Offsets: center},
		{From: fluxName, Offsets: center},
		{From: InH, Offsets: center},
	}
	fast := func(env *stencil.Env, r grid.Region) {
		ext := env.Field(extName).Data
		ps := env.Field(curName).Data
		fl := env.Field(fluxName).Data
		h := env.Field(InH).Data
		out := env.Field(name).Data
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			row := out[base : base+nk : base+nk]
			e := ext[base : base+nk]
			p := ps[base : base+nk]
			f := fl[base : base+nk]
			hh := h[base : base+nk]
			for x := range row {
				num := e[x] - p[x]
				if !up {
					num = -num
				}
				row[x] = num * hh[x] / (f[x] + Eps)
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 4},
		Kernel: stencil.SplitKernel(inputs, fast, fast), Fast: fast, Slow: fast,
	}
}

// limitedFluxStageNamed builds the corrective flux through the +d face with
// the monotonically limited antidiffusive velocity.
func limitedFluxStageNamed(name, vName string, di, dj, dk int, curName, buName, bdName string) stencil.KernelStage {
	dOff := off(di, dj, dk)
	both := []stencil.Offset{off(0, 0, 0), dOff}
	inputs := []stencil.Input{
		{From: vName, Offsets: center},
		{From: curName, Offsets: both},
		{From: buName, Offsets: both},
		{From: bdName, Offsets: both},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		v, ps := env.Field(vName), env.Field(curName)
		bu, bd, out := env.Field(buName), env.Field(bdName), env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			vf := v.At(i, j, k)
			// Positive flux (left cell loses, right cell gains):
			// limited by outflow of donor and inflow of receiver.
			cPos := minf(1, minf(bd.At(i, j, k), env.AtP(bu, i+di, j+dj, k+dk)))
			// Negative flux: donor is the +d cell.
			cNeg := minf(1, minf(bu.At(i, j, k), env.AtP(bd, i+di, j+dj, k+dk)))
			vm := cPos*maxf(vf, 0) + cNeg*minf(vf, 0)
			out.Set(i, j, k, donor(ps.At(i, j, k), env.AtP(ps, i+di, j+dj, k+dk), vm))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		v := env.Field(vName).Data
		ps := env.Field(curName).Data
		bu := env.Field(buName).Data
		bd := env.Field(bdName).Data
		out := env.Field(name).Data
		sd := env.OffsetStride(dOff)
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			row := out[base : base+nk : base+nk]
			vv := v[base : base+nk]
			p0 := ps[base : base+nk]
			pd := ps[base+sd : base+sd+nk]
			bu0 := bu[base : base+nk]
			bud := bu[base+sd : base+sd+nk]
			bd0 := bd[base : base+nk]
			bdd := bd[base+sd : base+sd+nk]
			for x := range row {
				vf := vv[x]
				cPos := minf(1, minf(bd0[x], bud[x]))
				cNeg := minf(1, minf(bu0[x], bdd[x]))
				vm := cPos*maxf(vf, 0) + cNeg*minf(vf, 0)
				row[x] = donor(p0[x], pd[x], vm)
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 10},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}

// psiNewStageNamed builds a flux-divergence update: the base field minus the
// divergence of the three face fluxes over the density.
func psiNewStageNamed(name, baseName, g1Name, g2Name, g3Name string) stencil.KernelStage {
	inputs := []stencil.Input{
		{From: baseName, Offsets: center},
		{From: g1Name, Offsets: []stencil.Offset{off(0, 0, 0), off(-1, 0, 0)}},
		{From: g2Name, Offsets: []stencil.Offset{off(0, 0, 0), off(0, -1, 0)}},
		{From: g3Name, Offsets: []stencil.Offset{off(0, 0, 0), off(0, 0, -1)}},
		{From: InH, Offsets: center},
	}
	slow := func(env *stencil.Env, r grid.Region) {
		base, h := env.Field(baseName), env.Field(InH)
		g1, g2, g3 := env.Field(g1Name), env.Field(g2Name), env.Field(g3Name)
		out := env.Field(name)
		stencil.ForEach(r, func(i, j, k int) {
			div := g1.At(i, j, k) - env.AtP(g1, i-1, j, k) +
				g2.At(i, j, k) - env.AtP(g2, i, j-1, k) +
				g3.At(i, j, k) - env.AtP(g3, i, j, k-1)
			out.Set(i, j, k, base.At(i, j, k)-div/h.At(i, j, k))
		})
	}
	fast := func(env *stencil.Env, r grid.Region) {
		bs := env.Field(baseName).Data
		h := env.Field(InH).Data
		g1 := env.Field(g1Name).Data
		g2 := env.Field(g2Name).Data
		g3 := env.Field(g3Name).Data
		out := env.Field(name).Data
		siN, sjN, skN := env.Step(0, -1), env.Step(1, -1), env.Step(2, -1)
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			row := out[base : base+nk : base+nk]
			b0 := bs[base : base+nk]
			hh := h[base : base+nk]
			a0 := g1[base : base+nk]
			ai := g1[base+siN : base+siN+nk]
			c0 := g2[base : base+nk]
			cj := g2[base+sjN : base+sjN+nk]
			e0 := g3[base : base+nk]
			ek := g3[base+skN : base+skN+nk]
			for x := range row {
				div := a0[x] - ai[x] + c0[x] - cj[x] + e0[x] - ek[x]
				row[x] = b0[x] - div/hh[x]
			}
		})
	}
	return stencil.KernelStage{
		Stage:  stencil.Stage{Name: name, Inputs: inputs, Flops: 7},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow,
	}
}
