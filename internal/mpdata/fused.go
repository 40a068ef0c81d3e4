package mpdata

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Hand-fused sibling kernels for the highest-traffic fused groups of the
// MPDATA program. Each computes several mutually independent stages in one
// row sweep, so inputs the siblings share (psi, psi*, h, the limiter
// coefficients) are loaded once per cell instead of once per member stage.
// Like the per-stage fast paths, they resolve offsets through
// Env.Step/OffsetStride, so the compiled schedule can run them unchanged on
// pinned border pieces; rows are re-sliced so the inner loops carry no
// per-element bounds checks.
//
// Each kernel has two bodies computing the same bits: the scalar row loop, and
// an AVX2 body (fused_amd64.s) called once for the whole region.
// useVector, read when the kernel is built, picks between them. The per-stage
// kernels of program.go — the sequential reference and the unfused strips —
// are scalar only, so every fused-against-unfused comparison checks the
// assembly against independent Go.

// rowGeom is the shape of a non-empty region as a vector body walks it:
// planes of rows of n cells, the strides in bytes.
type rowGeom struct {
	n, rows, planes        int
	rowStride, planeStride int
}

// vecRegion is a region prepared for a vector body: its shape, the flat index
// of its first cell and the number of cells from there to its last.
type vecRegion struct {
	rowGeom
	first, span int
}

func vecRegionOf(domain grid.Size, r grid.Region) (g vecRegion, ok bool) {
	if r.Empty() {
		return g, false
	}
	planeCells := domain.NJ * domain.NK
	g.n, g.rows, g.planes = r.K1-r.K0, r.J1-r.J0, r.I1-r.I0
	g.rowStride, g.planeStride = domain.NK*grid.CellBytes, planeCells*grid.CellBytes
	g.first = r.I0*planeCells + r.J0*domain.NK + r.K0
	g.span = (g.planes-1)*planeCells + (g.rows-1)*domain.NK + g.n
	return g, true
}

// at returns the stream pointer for a stream whose first cell is s[first+o].
// The slice expression is the bounds proof for everything the vector body
// will touch through it — one check per stream and region instead of one per
// cell — so a region reaching outside the fields panics here, in Go.
func (g *vecRegion) at(s []float64, o int) *float64 {
	lo := g.first + o
	return &s[lo : lo+g.span : len(s)][0]
}

// fusedDonorFluxes computes the three donor-cell flux stages of one pass in
// a single sweep: psi is streamed once for all three face directions.
//
//go:noinline
func fusedDonorFluxes(f1n, f2n, f3n, u1n, u2n, u3n, psiName string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		psi := env.Field(psiName).Data
		u1 := env.Field(u1n).Data
		u2 := env.Field(u2n).Data
		u3 := env.Field(u3n).Data
		o1 := env.Field(f1n).Data
		o2 := env.Field(f2n).Data
		o3 := env.Field(f3n).Data
		d1 := env.OffsetStride(off(1, 0, 0))
		d2 := env.OffsetStride(off(0, 1, 0))
		d3 := env.OffsetStride(off(0, 0, 1))
		if vec {
			if g, ok := vecRegionOf(env.Domain, r); ok {
				donorFluxesAVX2(&[10]*float64{
					g.at(psi, 0), g.at(psi, d1), g.at(psi, d2), g.at(psi, d3),
					g.at(u1, 0), g.at(u2, 0), g.at(u3, 0),
					g.at(o1, 0), g.at(o2, 0), g.at(o3, 0),
				}, g.rowGeom)
			}
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			p0 := psi[base : base+nk : base+nk]
			p1 := psi[base+d1 : base+d1+nk]
			p2 := psi[base+d2 : base+d2+nk]
			p3 := psi[base+d3 : base+d3+nk]
			w1 := u1[base : base+nk]
			w2 := u2[base : base+nk]
			w3 := u3[base : base+nk]
			r1 := o1[base : base+nk]
			r2 := o2[base : base+nk]
			r3 := o3[base : base+nk]
			// Three tight sub-loops per row instead of one wide loop: each
			// matches the per-stage fast path's codegen (few live streams, no
			// spills) while the shared psi row stays hot in L1 between them.
			for x := range p0 {
				r1[x] = donor(p0[x], p1[x], w1[x])
			}
			for x := range p0 {
				r2[x] = donor(p0[x], p2[x], w2[x])
			}
			for x := range p0 {
				r3[x] = donor(p0[x], p3[x], w3[x])
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{f1n, f2n, f3n}, Fast: fast}
}

// fusedExtrema computes the 7-point maximum and minimum stages together:
// the 14 neighbour loads of psi and the current iterate feed both extrema
// instead of being streamed twice.
//
//go:noinline
func fusedExtrema(maxName, minName, curName string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		psi := env.Field(InPsi).Data
		cur := env.Field(curName).Data
		omx := env.Field(maxName).Data
		omn := env.Field(minName).Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		skN, skP := env.Step(2, -1), env.Step(2, 1)
		if vec {
			if g, ok := vecRegionOf(env.Domain, r); ok {
				extremaAVX2(&[16]*float64{
					g.at(psi, 0), g.at(cur, 0),
					g.at(psi, siN), g.at(cur, siN), g.at(psi, siP), g.at(cur, siP),
					g.at(psi, sjN), g.at(cur, sjN), g.at(psi, sjP), g.at(cur, sjP),
					g.at(psi, skN), g.at(cur, skN), g.at(psi, skP), g.at(cur, skP),
					g.at(omx, 0), g.at(omn, 0),
				}, g.rowGeom)
			}
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			for n := base; n < base+nk; n++ {
				mx := psi[n]
				mn := mx
				for _, v := range [13]float64{
					cur[n], psi[n+siN], cur[n+siN], psi[n+siP], cur[n+siP],
					psi[n+sjN], cur[n+sjN], psi[n+sjP], cur[n+sjP],
					psi[n+skN], cur[n+skN], psi[n+skP], cur[n+skP],
				} {
					if v > mx {
						mx = v
					}
					if v < mn {
						mn = v
					}
				}
				omx[n] = mx
				omn[n] = mn
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{maxName, minName}, Fast: fast}
}

// fusedPseudoVel computes the three antidiffusive pseudo-velocity stages —
// the widest and most expensive stencils of the program — in one row sweep.
// Each direction's sub-loop is the exact operation sequence of the member
// fast path (pseudoVelStageNamed), so results are bit-identical; the shared
// iterate and depth rows stay in L1 across the three passes instead of being
// re-streamed from L2 per stage.
//
//go:noinline
func fusedPseudoVel(v1n, v2n, v3n, curName, u1n, u2n, u3n string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		ps := env.Field(curName).Data
		h := env.Field(InH).Data
		us := [3][]float64{env.Field(u1n).Data, env.Field(u2n).Data, env.Field(u3n).Data}
		outs := [3][]float64{env.Field(v1n).Data, env.Field(v2n).Data, env.Field(v3n).Data}
		// Per-dimension steps, resolved exactly as the member fast paths do:
		// composite offsets are sums of the per-direction strides.
		var pos, neg [3]int
		for dim := 0; dim < 3; dim++ {
			d := unit(dim)
			pos[dim] = env.OffsetStride(d)
			neg[dim] = env.OffsetStride(off(-d.DI, -d.DJ, -d.DK))
		}
		if vec {
			g, ok := vecRegionOf(env.Domain, r)
			if !ok {
				return
			}
			var tab [66]*float64
			for dir := 0; dir < 3; dir++ {
				ad, bd := (dir+1)%3, (dir+2)%3
				sd := pos[dir]
				saP, saN := pos[ad], neg[ad]
				sbP, sbN := pos[bd], neg[bd]
				u, ua, ub := us[dir], us[ad], us[bd]
				copy(tab[22*dir:], []*float64{
					g.at(u, 0), g.at(h, 0), g.at(h, sd),
					g.at(ps, 0), g.at(ps, sd),
					g.at(ps, saP), g.at(ps, sd+saP), g.at(ps, saN), g.at(ps, sd+saN),
					g.at(ps, sbP), g.at(ps, sd+sbP), g.at(ps, sbN), g.at(ps, sd+sbN),
					g.at(ua, 0), g.at(ua, saN), g.at(ua, sd), g.at(ua, sd+saN),
					g.at(ub, 0), g.at(ub, sbN), g.at(ub, sd), g.at(ub, sd+sbN),
					g.at(outs[dir], 0),
				})
			}
			pseudoVelAVX2(&tab, g.rowGeom)
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			for dir := 0; dir < 3; dir++ {
				ad, bd := (dir+1)%3, (dir+2)%3
				sd := pos[dir]
				saP, saN := pos[ad], neg[ad]
				sbP, sbN := pos[bd], neg[bd]
				u, ua, ub := us[dir], us[ad], us[bd]
				out := outs[dir]
				for n := base; n < base+nk; n++ {
					uf := u[n]
					hbar := 0.5 * (h[n] + h[n+sd])

					p0, pd := ps[n], ps[n+sd]
					aTerm := (pd - p0) / (pd + p0 + Eps)

					paP := ps[n+saP] + ps[n+sd+saP]
					paM := ps[n+saN] + ps[n+sd+saN]
					bA := 0.5 * (paP - paM) / (paP + paM + Eps)

					pbP := ps[n+sbP] + ps[n+sd+sbP]
					pbM := ps[n+sbN] + ps[n+sd+sbN]
					bB := 0.5 * (pbP - pbM) / (pbP + pbM + Eps)

					uaBar := 0.25 * (ua[n] + ua[n+saN] + ua[n+sd] + ua[n+sd+saN])
					ubBar := 0.25 * (ub[n] + ub[n+sbN] + ub[n+sd] + ub[n+sd+sbN])

					au := absf(uf)
					out[n] = au*(1-au/hbar)*aTerm - uf*(uaBar*bA+ubBar*bB)/hbar
				}
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{v1n, v2n, v3n}, Fast: fast}
}

// fusedLimiterFluxes computes the incoming and outgoing limiter flux totals
// in one row sweep: the six pseudo-velocity face values feed both outputs,
// so the velocity rows are loaded once instead of twice.
//
//go:noinline
func fusedLimiterFluxes(inName, outName, curName, v1n, v2n, v3n string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		v1 := env.Field(v1n).Data
		v2 := env.Field(v2n).Data
		v3 := env.Field(v3n).Data
		ps := env.Field(curName).Data
		oin := env.Field(inName).Data
		oout := env.Field(outName).Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		skN, skP := env.Step(2, -1), env.Step(2, 1)
		if vec {
			if g, ok := vecRegionOf(env.Domain, r); ok {
				limiterFluxesAVX2(&[15]*float64{
					g.at(v1, 0), g.at(v1, siN), g.at(v2, 0), g.at(v2, sjN), g.at(v3, 0), g.at(v3, skN),
					g.at(ps, 0), g.at(ps, siN), g.at(ps, siP), g.at(ps, sjN), g.at(ps, sjP), g.at(ps, skN), g.at(ps, skP),
					g.at(oin, 0), g.at(oout, 0),
				}, g.rowGeom)
			}
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			for n := base; n < base+nk; n++ {
				oin[n] = maxf(v1[n+siN], 0)*ps[n+siN] - minf(v1[n], 0)*ps[n+siP] +
					maxf(v2[n+sjN], 0)*ps[n+sjN] - minf(v2[n], 0)*ps[n+sjP] +
					maxf(v3[n+skN], 0)*ps[n+skN] - minf(v3[n], 0)*ps[n+skP]
			}
			for n := base; n < base+nk; n++ {
				p0 := ps[n]
				oout[n] = (maxf(v1[n], 0)-minf(v1[n+siN], 0))*p0 +
					(maxf(v2[n], 0)-minf(v2[n+sjN], 0))*p0 +
					(maxf(v3[n], 0)-minf(v3[n+skN], 0))*p0
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{inName, outName}, Fast: fast}
}

// fusedLimitedFluxes computes the three limited corrective flux stages in
// one sweep: the iterate and both limiter coefficients are loaded once per
// cell and reused for all three face directions.
//
//go:noinline
func fusedLimitedFluxes(g1n, g2n, g3n, v1n, v2n, v3n, curName, buName, bdName string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		v1 := env.Field(v1n).Data
		v2 := env.Field(v2n).Data
		v3 := env.Field(v3n).Data
		ps := env.Field(curName).Data
		bu := env.Field(buName).Data
		bd := env.Field(bdName).Data
		o1 := env.Field(g1n).Data
		o2 := env.Field(g2n).Data
		o3 := env.Field(g3n).Data
		d1 := env.OffsetStride(off(1, 0, 0))
		d2 := env.OffsetStride(off(0, 1, 0))
		d3 := env.OffsetStride(off(0, 0, 1))
		if vec {
			if g, ok := vecRegionOf(env.Domain, r); ok {
				limitedFluxesAVX2(&[18]*float64{
					g.at(ps, 0), g.at(bu, 0), g.at(bd, 0),
					g.at(ps, d1), g.at(bu, d1), g.at(bd, d1), g.at(v1, 0), g.at(o1, 0),
					g.at(ps, d2), g.at(bu, d2), g.at(bd, d2), g.at(v2, 0), g.at(o2, 0),
					g.at(ps, d3), g.at(bu, d3), g.at(bd, d3), g.at(v3, 0), g.at(o3, 0),
				}, g.rowGeom)
			}
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			p0 := ps[base : base+nk : base+nk]
			bu0 := bu[base : base+nk]
			bd0 := bd[base : base+nk]
			// One tight sub-loop per face direction; the shared iterate and
			// limiter rows stay hot in L1 across the three passes.
			for fi, d := range [3]int{d1, d2, d3} {
				var vv, oo []float64
				switch fi {
				case 0:
					vv, oo = v1, o1
				case 1:
					vv, oo = v2, o2
				default:
					vv, oo = v3, o3
				}
				pd := ps[base+d : base+d+nk]
				bud := bu[base+d : base+d+nk]
				bdd := bd[base+d : base+d+nk]
				vf := vv[base : base+nk]
				out := oo[base : base+nk]
				for x := range p0 {
					v := vf[x]
					vm := minf(1, minf(bd0[x], bud[x]))*maxf(v, 0) +
						minf(1, minf(bu0[x], bdd[x]))*minf(v, 0)
					out[x] = donor(p0[x], pd[x], vm)
				}
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{g1n, g2n, g3n}, Fast: fast}
}
