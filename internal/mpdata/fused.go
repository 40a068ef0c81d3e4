package mpdata

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Hand-written group kernels for the fused groups of the MPDATA program. Five
// compute several mutually independent stages in one row sweep, so inputs the
// siblings share (psi, psi*, h, the limiter coefficients) are loaded once per
// cell instead of once per member stage; fusedBetas does the same for the two
// pointwise limiter coefficients, and fluxDivergence is the one-stage kernel
// of the psiStar/psiNew updates. Like the per-stage fast paths, they resolve
// offsets through Env.Step/OffsetStride, so they run unchanged on pinned
// border pieces; and they are row-capable (stencil.Kernel, rows.go): on a
// region with k unpinned they compute the cells at the k faces inside the row
// visit, so the compiled schedule never hands them a column of one-cell rows.
//
// Each kernel has two bodies computing the same bits: the scalar row loop, and
// an AVX2 body (fused_amd64.s) called once per pass over the region.
// useVector, read when the kernel is built, picks between them; both handle
// their end cells, so a compiled schedule is the same under either. The
// per-stage kernels of program.go — the sequential reference and the unfused
// strips — are scalar only, so every fused-against-unfused comparison checks
// the assembly against independent Go.

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
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 0, 1, &buf) {
			p := &buf[pi]
			var d [3][3]int
			var tab [30]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				e := &p.seg[s].env
				d[s] = [3]int{e.OffsetStride(off(1, 0, 0)), e.OffsetStride(off(0, 1, 0)), e.OffsetStride(off(0, 0, 1))}
				if vec {
					g := p.vec(s)
					copy(tab[10*s:], []*float64{
						g.at(psi, 0), g.at(psi, d[s][0]), g.at(psi, d[s][1]), g.at(psi, d[s][2]),
						g.at(u1, 0), g.at(u2, 0), g.at(u3, 0),
						g.at(o1, 0), g.at(o2, 0), g.at(o3, 0),
					})
				}
			}
			if vec {
				donorFluxesAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				d1, d2, d3 := d[s][0], d[s][1], d[s][2]
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
	}
	return stencil.FusedKernel{Stages: []string{f1n, f2n, f3n}, Fast: fast, Rows: true}
}

// sixSteps resolves the six unit steps (-i, +i, -j, +j, -k, +k) under e's
// binding.
func sixSteps(e *stencil.Env) [6]int {
	return [6]int{e.Step(0, -1), e.Step(0, 1), e.Step(1, -1), e.Step(1, 1), e.Step(2, -1), e.Step(2, 1)}
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
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 1, 1, &buf) {
			p := &buf[pi]
			var d [3][6]int
			var tab [48]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				d[s] = sixSteps(&p.seg[s].env)
				if vec {
					g, t := p.vec(s), tab[16*s:]
					t[0], t[1] = g.at(psi, 0), g.at(cur, 0)
					for i, o := range d[s] {
						t[2+2*i], t[3+2*i] = g.at(psi, o), g.at(cur, o)
					}
					t[14], t[15] = g.at(omx, 0), g.at(omn, 0)
				}
			}
			if vec {
				extremaAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				siN, siP, sjN, sjP, skN, skP := d[s][0], d[s][1], d[s][2], d[s][3], d[s][4], d[s][5]
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
	}
	return stencil.FusedKernel{Stages: []string{maxName, minName}, Fast: fast, Rows: true}
}

// fusedPseudoVel computes the three antidiffusive pseudo-velocity stages —
// the widest and most expensive stencils of the program — in one row sweep.
// Each direction's sub-loop is the exact operation sequence of the member
// fast path (pseudoVelStageNamed), one division per face over the common
// denominator, so results are bit-identical; the shared iterate and depth rows
// stay in L1 across the three passes instead of being re-streamed from L2 per
// stage.
//
//go:noinline
func fusedPseudoVel(v1n, v2n, v3n, curName, u1n, u2n, u3n string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		ps := env.Field(curName).Data
		h := env.Field(InH).Data
		us := [3][]float64{env.Field(u1n).Data, env.Field(u2n).Data, env.Field(u3n).Data}
		outs := [3][]float64{env.Field(v1n).Data, env.Field(v2n).Data, env.Field(v3n).Data}
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 1, 1, &buf) {
			p := &buf[pi]
			// Per-dimension steps, resolved exactly as the member fast paths do:
			// composite offsets are sums of the per-direction strides.
			var pos, neg [3][3]int
			var tab [198]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				e := &p.seg[s].env
				for dim := 0; dim < 3; dim++ {
					d := unit(dim)
					pos[s][dim] = e.OffsetStride(d)
					neg[s][dim] = e.OffsetStride(off(-d.DI, -d.DJ, -d.DK))
				}
				if !vec {
					continue
				}
				g := p.vec(s)
				for dir := 0; dir < 3; dir++ {
					ad, bd := (dir+1)%3, (dir+2)%3
					sd := pos[s][dir]
					saP, saN := pos[s][ad], neg[s][ad]
					sbP, sbN := pos[s][bd], neg[s][bd]
					u, ua, ub := us[dir], us[ad], us[bd]
					copy(tab[66*s+22*dir:], []*float64{
						g.at(u, 0), g.at(h, 0), g.at(h, sd),
						g.at(ps, 0), g.at(ps, sd),
						g.at(ps, saP), g.at(ps, sd+saP), g.at(ps, saN), g.at(ps, sd+saN),
						g.at(ps, sbP), g.at(ps, sd+sbP), g.at(ps, sbN), g.at(ps, sd+sbN),
						g.at(ua, 0), g.at(ua, saN), g.at(ua, sd), g.at(ua, sd+saN),
						g.at(ub, 0), g.at(ub, sbN), g.at(ub, sd), g.at(ub, sd+sbN),
						g.at(outs[dir], 0),
					})
				}
			}
			if vec {
				pseudoVelAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				for dir := 0; dir < 3; dir++ {
					ad, bd := (dir+1)%3, (dir+2)%3
					sd := pos[s][dir]
					saP, saN := pos[s][ad], neg[s][ad]
					sbP, sbN := pos[s][bd], neg[s][bd]
					u, ua, ub := us[dir], us[ad], us[bd]
					out := outs[dir]
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
				}
			})
		}
	}
	return stencil.FusedKernel{Stages: []string{v1n, v2n, v3n}, Fast: fast, Rows: true}
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
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 1, 1, &buf) {
			p := &buf[pi]
			var d [3][6]int
			var tab [45]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				d[s] = sixSteps(&p.seg[s].env)
				if vec {
					g := p.vec(s)
					siN, siP, sjN, sjP, skN, skP := d[s][0], d[s][1], d[s][2], d[s][3], d[s][4], d[s][5]
					copy(tab[15*s:], []*float64{
						g.at(v1, 0), g.at(v1, siN), g.at(v2, 0), g.at(v2, sjN), g.at(v3, 0), g.at(v3, skN),
						g.at(ps, 0), g.at(ps, siN), g.at(ps, siP), g.at(ps, sjN), g.at(ps, sjP), g.at(ps, skN), g.at(ps, skP),
						g.at(oin, 0), g.at(oout, 0),
					})
				}
			}
			if vec {
				limiterFluxesAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				siN, siP, sjN, sjP, skN, skP := d[s][0], d[s][1], d[s][2], d[s][3], d[s][4], d[s][5]
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
	}
	return stencil.FusedKernel{Stages: []string{inName, outName}, Fast: fast, Rows: true}
}

// fusedBetas computes the two limiter coefficients in one sweep: the iterate
// and h are loaded once for both. The stages are pointwise, so no cell reads
// across a face and every row is all body.
//
//go:noinline
func fusedBetas(upName, dnName, curName, maxName, minName, inName, outName string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		if r.Empty() {
			return
		}
		mx := env.Field(maxName).Data
		mn := env.Field(minName).Data
		ps := env.Field(curName).Data
		h := env.Field(InH).Data
		fin := env.Field(inName).Data
		fout := env.Field(outName).Data
		oup := env.Field(upName).Data
		odn := env.Field(dnName).Data
		if vec {
			g := vecRegionOf(env.Domain, r)
			betasAVX2(&[8]*float64{
				g.at(mx, 0), g.at(mn, 0), g.at(ps, 0), g.at(h, 0), g.at(fin, 0), g.at(fout, 0),
				g.at(oup, 0), g.at(odn, 0),
			}, g.rowGeom)
			return
		}
		nk := r.K1 - r.K0
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			up := oup[base : base+nk : base+nk]
			dn := odn[base : base+nk]
			emx := mx[base : base+nk]
			emn := mn[base : base+nk]
			p := ps[base : base+nk]
			hh := h[base : base+nk]
			fi := fin[base : base+nk]
			fo := fout[base : base+nk]
			for x := range up {
				up[x] = (emx[x] - p[x]) * hh[x] / (fi[x] + Eps)
			}
			for x := range up {
				dn[x] = -(emn[x] - p[x]) * hh[x] / (fo[x] + Eps)
			}
		})
	}
	return stencil.FusedKernel{Stages: []string{upName, dnName}, Fast: fast, Rows: true}
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
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 0, 1, &buf) {
			p := &buf[pi]
			var d [3][3]int
			var tab [54]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				e := &p.seg[s].env
				d[s] = [3]int{e.OffsetStride(off(1, 0, 0)), e.OffsetStride(off(0, 1, 0)), e.OffsetStride(off(0, 0, 1))}
				if vec {
					g := p.vec(s)
					d1, d2, d3 := d[s][0], d[s][1], d[s][2]
					copy(tab[18*s:], []*float64{
						g.at(ps, 0), g.at(bu, 0), g.at(bd, 0),
						g.at(ps, d1), g.at(bu, d1), g.at(bd, d1), g.at(v1, 0), g.at(o1, 0),
						g.at(ps, d2), g.at(bu, d2), g.at(bd, d2), g.at(v2, 0), g.at(o2, 0),
						g.at(ps, d3), g.at(bu, d3), g.at(bd, d3), g.at(v3, 0), g.at(o3, 0),
					})
				}
			}
			if vec {
				limitedFluxesAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				p0 := ps[base : base+nk : base+nk]
				bu0 := bu[base : base+nk]
				bd0 := bd[base : base+nk]
				// One tight sub-loop per face direction; the shared iterate and
				// limiter rows stay hot in L1 across the three passes.
				for fi, o := range d[s] {
					var vv, oo []float64
					switch fi {
					case 0:
						vv, oo = v1, o1
					case 1:
						vv, oo = v2, o2
					default:
						vv, oo = v3, o3
					}
					pd := ps[base+o : base+o+nk]
					bud := bu[base+o : base+o+nk]
					bdd := bd[base+o : base+o+nk]
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
	}
	return stencil.FusedKernel{Stages: []string{g1n, g2n, g3n}, Fast: fast, Rows: true}
}

// fluxDivergence is the compiled schedule's kernel for a flux-divergence
// update (psiNewStageNamed: psiStar, psiNew and the psiOut passes of
// IORD > 2), a one-stage registration: the stage's own kernels stay the
// scalar Go the sequential reference runs.
//
//go:noinline
func fluxDivergence(name, baseName, g1n, g2n, g3n string) stencil.FusedKernel {
	vec := useVector
	fast := func(env *stencil.Env, r grid.Region) {
		bs := env.Field(baseName).Data
		h := env.Field(InH).Data
		g1 := env.Field(g1n).Data
		g2 := env.Field(g2n).Data
		g3 := env.Field(g3n).Data
		out := env.Field(name).Data
		var buf [2]rowPass
		for pi := range rowPasses(env, r, 1, 0, &buf) {
			p := &buf[pi]
			var d [3][3]int
			var tab [27]*float64
			for s := range p.seg {
				if !p.has(s) {
					continue
				}
				e := &p.seg[s].env
				d[s] = [3]int{e.Step(0, -1), e.Step(1, -1), e.Step(2, -1)}
				if vec {
					g := p.vec(s)
					copy(tab[9*s:], []*float64{
						g.at(bs, 0), g.at(h, 0),
						g.at(g1, 0), g.at(g1, d[s][0]), g.at(g2, 0), g.at(g2, d[s][1]), g.at(g3, 0), g.at(g3, d[s][2]),
						g.at(out, 0),
					})
				}
			}
			if vec {
				fluxDivergenceAVX2(&tab, p.vec(0).rowGeom, p.ends)
				continue
			}
			p.forEachRow(func(s, base, nk int) {
				siN, sjN, skN := d[s][0], d[s][1], d[s][2]
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
	}
	return stencil.FusedKernel{Stages: []string{name}, Fast: fast, Rows: true}
}
