package mpdata

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// vectorAvailable records whether this build and CPU have the AVX2 bodies;
// tests flip useVector below it and must never raise it above.
var vectorAvailable = useVector

// programWithBody builds the default program with its fused kernels bound to
// the vector (true) or scalar (false) body, whatever the CPU would pick.
func programWithBody(t testing.TB, vector bool) *stencil.KernelProgram {
	t.Helper()
	if vector && !vectorAvailable {
		t.Skip("no AVX2 bodies in this build or on this CPU")
	}
	var kp *stencil.KernelProgram
	WithBody(vector, func() { kp = NewProgram() })
	return kp
}

// hwNaN is the quiet NaN x86 produces for an invalid operation. The
// differential inputs carry no other NaN: where two NaNs with different
// payloads meet, the hardware returns its first source operand, and which
// operand of a commutative operation that is belongs to the Go compiler's
// register allocation, not to the source the assembly mirrors.
var hwNaN = math.Float64frombits(0xfff8000000000000)

// specials are the values a row kernel's comparisons and divisions treat
// differently from ordinary positive data.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, Eps, -Eps,
	math.Inf(1), math.Inf(-1), hwNaN,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, 1e300, -1e300,
}

// fillSpecial overwrites every field of env — step inputs and stage outputs
// alike, so each fused kernel sees the values on all its inputs — with a mix
// of the special values (probability density) and finite values in (-2, 2),
// a third of those rounded to quarters so that neighbours tie exactly.
func fillSpecial(env *stencil.Env, kp *stencil.KernelProgram, rng *rand.Rand, density float64) {
	names := append([]string(nil), kp.StepInputs...)
	for _, s := range kp.Stages {
		names = append(names, s.Name)
	}
	for _, name := range names {
		data := env.Field(name).Data
		for n := range data {
			switch v := 4*rng.Float64() - 2; {
			case rng.Float64() < density:
				data[n] = specials[rng.Intn(len(specials))]
			case rng.Intn(3) == 0:
				data[n] = math.Round(v*4) / 4
			default:
				data[n] = v
			}
		}
	}
}

// fusedKernelNamed returns the index of the registered fused kernel whose
// first member is stage.
func fusedKernelNamed(t testing.TB, kp *stencil.KernelProgram, stage string) int {
	t.Helper()
	for fi := range kp.Fused {
		if kp.Fused[fi].Stages[0] == stage {
			return fi
		}
	}
	t.Fatalf("no fused kernel starts at stage %q", stage)
	return -1
}

// fusedExtent is the merged read extent of a fused kernel's members: the
// interior where their flat-indexed fast paths are valid on an unbound env.
func fusedExtent(kp *stencil.KernelProgram, fk *stencil.FusedKernel) stencil.Extent {
	var ext stencil.Extent
	for _, name := range fk.Stages {
		ext = ext.Max(stencil.InputsExtent(kp.Stages[kp.StageIndex(name)].Inputs))
	}
	return ext
}

const poison = -12345.678

// diffFused runs fused kernel fi of kp over region r of e (base, or a border
// binding of it) and requires every output field — the cells outside r
// included, which neither side may touch — to carry the bits the member
// stages' scalar fast paths leave there. The members run piecewise along k,
// as a schedule runs a kernel that is not row-capable: the cells of r at a k
// face the kernel reads across are one-cell-deep pieces of their own, on e
// pinned at that k. The outputs are restored afterwards.
func diffFused(t testing.TB, kp *stencil.KernelProgram, fi int, base, e *stencil.Env, r grid.Region, what string) {
	t.Helper()
	fk := &kp.Fused[fi]
	ext := fusedExtent(kp, fk)
	body, faces := stencil.BorderPieces(r, stencil.Extent{KLo: ext.KLo, KHi: ext.KHi}, base.Domain)
	outs := make([][]float64, len(fk.Stages))
	saved := make([][]float64, len(fk.Stages))
	refs := make([][]float64, len(fk.Stages))
	for i, name := range fk.Stages {
		outs[i] = base.Field(name).Data
		saved[i] = append([]float64(nil), outs[i]...)
	}
	fillAll := func(v float64) {
		for _, out := range outs {
			for n := range out {
				out[n] = v
			}
		}
	}
	fillAll(poison)
	for i, name := range fk.Stages {
		fast, _, ok := kp.SplitPaths(kp.StageIndex(name))
		if !ok {
			t.Fatalf("member %q has no split form", name)
		}
		if !body.Empty() {
			fast(e, body)
		}
		for _, pc := range faces {
			pinned := e.PinK(pc.Pin[2])
			fast(&pinned, pc.Region)
		}
		refs[i] = append([]float64(nil), outs[i]...)
	}
	fillAll(poison)
	fk.Fast(e, r)
	nj, nk := base.Domain.NJ, base.Domain.NK
	for i, name := range fk.Stages {
		for n, got := range outs[i] {
			if want := refs[i][n]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: fused %v region %v: %q differs at (%d,%d,%d): %v (%#x), members give %v (%#x)",
					what, fk.Stages, r, name, n/(nj*nk), n/nk%nj, n%nk,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		copy(outs[i], saved[i])
	}
}

// subRegion cuts a box of at most planes x rows x nk cells out of r, placed
// by rng.
func subRegion(r grid.Region, planes, rows, nk int, rng *rand.Rand) grid.Region {
	cut := func(lo, hi, n int) (int, int) {
		n = min(n, hi-lo)
		lo += rng.Intn(hi - lo - n + 1)
		return lo, lo + n
	}
	var s grid.Region
	s.I0, s.I1 = cut(r.I0, r.I1, planes)
	s.J0, s.J1 = cut(r.J0, r.J1, rows)
	s.K0, s.K1 = cut(r.K0, r.K1, nk)
	return s
}

// TestVectorBodiesMatchScalarMembers is the table half of the differential
// test: for every fused kernel, the AVX2 body against its members' scalar fast
// paths on bit patterns — row lengths 1..17 (short rows, and every overlap of
// the last vector after 1..4 whole ones), 1..5 rows, one and several planes on the interior, and
// every border piece (k-pinned pieces are one-cell rows, j-pinned ones single
// rows, i-pinned ones single planes) whole and cut down, under both boundary
// conditions, on ordinary data and on data salted with the special values.
func TestVectorBodiesMatchScalarMembers(t *testing.T) {
	kp := programWithBody(t, true)
	domain := grid.Sz(6, 8, 19)
	whole := grid.WholeRegion(domain)
	for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
		for _, density := range []float64{0, 0.05, 0.5} {
			rng := rand.New(rand.NewSource(int64(1000*density) + int64(bc)))
			env, err := stencil.NewEnv(&kp.Program, domain, NewState(domain).InputMap())
			if err != nil {
				t.Fatal(err)
			}
			env.BC = bc
			fillSpecial(env, kp, rng, density)
			for fi := range kp.Fused {
				what := fmt.Sprintf("bc=%v specials=%g", bc, density)
				interior, pieces := stencil.BorderPieces(whole, fusedExtent(kp, &kp.Fused[fi]), domain)
				for nk := 1; nk <= 17; nk++ {
					for rows := 1; rows <= 5; rows++ {
						for _, planes := range []int{1, 3} {
							diffFused(t, kp, fi, env, env, subRegion(interior, planes, rows, nk, rng), what)
						}
					}
				}
				for _, pc := range pieces {
					bound := env.BindPiece(pc)
					diffFused(t, kp, fi, env, bound, pc.Region, what+" piece")
					for n := 0; n < 3; n++ {
						cutDown := subRegion(pc.Region, 1+rng.Intn(3), 1+rng.Intn(5), 1+rng.Intn(17), rng)
						diffFused(t, kp, fi, env, bound, cutDown, what+" piece")
					}
				}
			}
		}
	}
}

// kRanges lists the k ranges a region of a domain nk deep is cut to in the
// rows-form tests: whole rows (both faces), rows touching one face or neither,
// and the one-cell-deep regions at each face.
func kRanges(nk int) [][2]int {
	out := [][2]int{{0, nk}}
	if nk >= 2 {
		out = append(out, [2]int{0, nk - 1}, [2]int{1, nk}, [2]int{0, 1}, [2]int{nk - 1, nk})
	}
	if nk >= 3 {
		out = append(out, [2]int{1, nk - 1})
	}
	return out
}

// TestRowsFormMatchesPiecewiseMembers is the differential test of the end
// cells: every fused kernel, on either body, handed regions with k unpinned —
// the interior and the (i,j)-pinned pieces of stencil.RowPieces, whole and cut
// down, over the k ranges of kRanges — against its members' scalar fast paths
// run piecewise, the faces on k-pinned environments. Domains from one cell
// deep (every row is one end cell) through 2 (two end cells, no body), 4 (one
// vector holding both end cells), 5-7 (first and last vector overlapping) and
// 8 (two vectors) to 18, both boundary conditions, ordinary data and data
// salted with the specials.
func TestRowsFormMatchesPiecewiseMembers(t *testing.T) {
	for _, vector := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "vector"}[vector], func(t *testing.T) {
			kp := programWithBody(t, vector)
			for _, nk := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 18} {
				domain := grid.Sz(5, 6, nk)
				whole := grid.WholeRegion(domain)
				for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
					for _, density := range []float64{0, 0.3} {
						rng := rand.New(rand.NewSource(int64(100*nk) + int64(10*density) + int64(bc)))
						env, err := stencil.NewEnv(&kp.Program, domain, NewState(domain).InputMap())
						if err != nil {
							t.Fatal(err)
						}
						env.BC = bc
						fillSpecial(env, kp, rng, density)
						for fi := range kp.Fused {
							what := fmt.Sprintf("rows nk=%d bc=%v specials=%g", nk, bc, density)
							interior, pieces := stencil.RowPieces(whole, fusedExtent(kp, &kp.Fused[fi]), domain)
							type bound struct {
								env *stencil.Env
								reg grid.Region
							}
							cases := []bound{{env, interior}}
							for _, pc := range pieces {
								cases = append(cases, bound{env.BindPiece(pc), pc.Region})
							}
							for _, c := range cases {
								for _, kr := range kRanges(nk) {
									r := c.reg
									r.K0, r.K1 = kr[0], kr[1]
									diffFused(t, kp, fi, env, c.env, r, what)
									cut := subRegion(r, 1+rng.Intn(3), 1+rng.Intn(4), nk, rng)
									diffFused(t, kp, fi, env, c.env, cut, what+" cut")
								}
							}
						}
					}
				}
			}
		})
	}
}

// fuzzFused is the fuzz half: the fuzzer draws the data (seed, density of
// special values), the boundary condition, the domain's depth (1..19 cells of
// k) and a region — the interior or one border piece of the pinned
// decomposition, or, past those, the interior or one (i,j)-pinned piece of the
// rows decomposition, whose k range is whole — cut down to a box it also
// draws. The seed corpus is committed under testdata/fuzz.
func fuzzFused(f *testing.F, stage string) {
	f.Fuzz(func(t *testing.T, seed int64, density uint8, periodic bool, depth, piece, planes, rows, nk uint8) {
		diffFuzzed(t, stage, nil, seed, density, periodic, depth, piece, planes, rows, nk)
	})
}

// diffFuzzed runs one fuzz case of fuzzFused; rescale, when set, edits the
// filled fields before the comparison.
func diffFuzzed(t *testing.T, stage string, rescale func(*stencil.Env), seed int64, density uint8, periodic bool, depth, piece, planes, rows, nk uint8) {
	kp := programWithBody(t, true)
	fi := fusedKernelNamed(t, kp, stage)
	domain := grid.Sz(5, 7, 1+int(depth)%19)
	whole := grid.WholeRegion(domain)
	rng := rand.New(rand.NewSource(seed))
	env, err := stencil.NewEnv(&kp.Program, domain, NewState(domain).InputMap())
	if err != nil {
		t.Fatal(err)
	}
	env.BC = stencil.Clamp
	if periodic {
		env.BC = stencil.Periodic
	}
	fillSpecial(env, kp, rng, float64(density)/255)
	if rescale != nil {
		rescale(env)
	}
	ext := fusedExtent(kp, &kp.Fused[fi])
	interior, pinned := stencil.BorderPieces(whole, ext, domain)
	rowInterior, rowPieces := stencil.RowPieces(whole, ext, domain)
	e, r := env, interior
	switch n := int(piece) % (len(pinned) + len(rowPieces) + 2); {
	case n == 0:
	case n <= len(pinned):
		e, r = env.BindPiece(pinned[n-1]), pinned[n-1].Region
	case n == len(pinned)+1:
		r = rowInterior
	default:
		pc := rowPieces[n-len(pinned)-2]
		e, r = env.BindPiece(pc), pc.Region
	}
	if r.Empty() {
		t.Skip("this domain has no such region")
	}
	r = subRegion(r, 1+int(planes)%5, 1+int(rows)%7, 1+int(nk)%19, rng)
	diffFused(t, kp, fi, env, e, r, fmt.Sprintf("seed=%d bc=%v", seed, env.BC))
}

func FuzzVectorDonorFluxes(f *testing.F)   { fuzzFused(f, "f1") }
func FuzzVectorExtrema(f *testing.F)       { fuzzFused(f, "psiMax") }
func FuzzVectorLimiterFluxes(f *testing.F) { fuzzFused(f, "fluxIn") }
func FuzzVectorLimitedFluxes(f *testing.F) { fuzzFused(f, "g1") }
func FuzzVectorPsiNew(f *testing.F)        { fuzzFused(f, "psiNew") }
func FuzzVectorBetaPair(f *testing.F)      { fuzzFused(f, "betaUp") }

// FuzzVectorPseudoVel draws two more numbers: binary exponents that scale the
// iterate the pseudo velocities read (psiStar) and h after the fill. The
// common denominator multiplies three sums of the iterate with h̄, so the
// committed edge seeds — the iterate near 1e102, where those products
// overflow to ±Inf; a subnormal iterate; h̄ near 1e-301 — pin both bodies to
// the same Inf and NaN patterns.
func FuzzVectorPseudoVel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, density uint8, periodic bool, depth, piece, planes, rows, nk uint8, psiExp, hExp int16) {
		ldexp := func(f *grid.Field, exp int16) {
			for n, v := range f.Data {
				f.Data[n] = math.Ldexp(v, int(exp))
			}
		}
		rescale := func(env *stencil.Env) {
			ldexp(env.Field("psiStar"), psiExp)
			ldexp(env.Field(InH), hExp)
		}
		diffFuzzed(t, "v1", rescale, seed, density, periodic, depth, piece, planes, rows, nk)
	})
}

// TestVectorWrapperPanicsOutsideTheFields: a region reaching one cell past
// the fields must fail the wrapper's slice expression, in Go, before the
// assembly is entered — never fault (or silently scribble) inside it.
func TestVectorWrapperPanicsOutsideTheFields(t *testing.T) {
	kp := programWithBody(t, true)
	domain := grid.Sz(6, 8, 19)
	env, err := stencil.NewEnv(&kp.Program, domain, NewState(domain).InputMap())
	if err != nil {
		t.Fatal(err)
	}
	env.BC = stencil.Clamp
	outside := map[string]grid.Region{
		"below i": grid.Box(-1, 2, 1, 7, 1, 18),
		"above i": grid.Box(3, 7, 1, 7, 1, 18),
		// The last row of the last plane, one cell past its end.
		"past the last cell": grid.Box(5, 6, 7, 8, 10, 20),
	}
	for fi := range kp.Fused {
		for where, r := range outside {
			func() {
				defer func() {
					p := recover()
					if p == nil {
						t.Fatalf("fused %v ran on a region %s", kp.Fused[fi].Stages, where)
					}
					if err, ok := p.(error); !ok || !strings.Contains(err.Error(), "out of range") {
						t.Fatalf("fused %v %s: panic %v, want a Go bounds failure", kp.Fused[fi].Stages, where, p)
					}
				}()
				kp.Fused[fi].Fast(env, r)
			}()
		}
	}
}

// TestVectorWrappersAllocateNothing: the stream tables, the passes and the pinned
// environments of the end cells live on the stack, so the compiled step loop
// stays allocation-free with either body in it — on a region clear of the k
// faces, on whole rows (both end cells riding along) and on the one-cell-deep
// region whose ends get a pass of their own.
func TestVectorWrappersAllocateNothing(t *testing.T) {
	domain := grid.Sz(8, 8, 8)
	state := NewState(domain)
	state.SetStandardProblem()
	for _, vector := range []bool{false, true} {
		t.Run(map[bool]string{false: "scalar", true: "vector"}[vector], func(t *testing.T) {
			kp := programWithBody(t, vector)
			env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
			if err != nil {
				t.Fatal(err)
			}
			for fi := range kp.Fused {
				fk := &kp.Fused[fi]
				for _, r := range []grid.Region{grid.Box(1, 7, 1, 7, 1, 7), grid.Box(1, 7, 1, 7, 0, 8), grid.Box(1, 7, 1, 7, 0, 1)} {
					if n := testing.AllocsPerRun(20, func() { fk.Fast(env, r) }); n != 0 {
						t.Errorf("fused %v allocates %v times per call on %v", fk.Stages, n, r)
					}
				}
			}
		})
	}
}
