package solver

import (
	"math"
	"math/rand"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// The split form (stencil.KernelStage Fast/Slow) is what keeps a compiled
// schedule off the per-cell boundary-checking path: the schedule compiler
// runs Fast over a stage's interior and over the pinned pieces of its border
// shell, and a stage without the form compiles to one combined kernel item.
// These tests hold every catalog stage to that form and its Fast path to the
// per-cell Slow path, bit for bit, on the compiler's own cut.

// programVariants returns the options of every program a catalog entry
// builds: the default, and for MPDATA each selectable order with and without
// the limiter.
func programVariants(e *Entry) []Options {
	out := []Options{{}}
	if e.MPDATAOptions {
		for iord := 1; iord <= 4; iord++ {
			out = append(out, Options{IORD: iord}, Options{IORD: iord, Unlimited: true})
		}
	}
	return out
}

// TestEveryStageHasSplitPaths: no served engine compiles a combined per-cell
// kernel item, because every stage of every catalog program carries the split
// form.
func TestEveryStageHasSplitPaths(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range programVariants(e) {
			kp, err := e.NewProgram(o)
			if err != nil {
				t.Fatal(err)
			}
			for s := range kp.Stages {
				if _, _, ok := kp.SplitPaths(s); !ok {
					t.Errorf("%s %+v: stage %q has no split form", name, o, kp.Stages[s].Name)
				}
			}
		}
	}
}

// splitDomain returns a domain of the given i/j extents the entry accepts:
// the k extent its packing constraint demands, or nk.
func splitDomain(e *Entry, ni, nj, nk int) grid.Size {
	for _, k := range []int{nk, 1, 2, 3, 9} {
		d := grid.Sz(ni, nj, k)
		if e.CheckDomain == nil || e.CheckDomain(d) == nil {
			return d
		}
	}
	return grid.Size{}
}

// compilerCuts calls fn with every way the schedule compiler cuts region r
// of stage s (the interior plus BorderPieces, or RowPieces for a row-capable
// stage): once with the stage's own input extent, as per-stage units run it,
// and once with the merged extent of its fused group, as the group's sweep
// runs it. visit runs a kernel over one cut: the interior on env, each
// border piece on env bound to it.
func compilerCuts(t testing.TB, kp *stencil.KernelProgram, s int, env *stencil.Env, r grid.Region, fn func(cut string, visit func(k stencil.Kernel))) {
	t.Helper()
	fp, err := stencil.PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	g := fp.Groups[fp.GroupOf(s)]
	groupRows := true
	for _, m := range g.Stages {
		groupRows = groupRows && kp.RowCapable(m)
	}
	for _, c := range []struct {
		name string
		ext  stencil.Extent
		rows bool
	}{
		{"stage", stencil.InputsExtent(kp.Stages[s].Inputs), kp.RowCapable(s)},
		{"group", g.Ext, groupRows},
	} {
		split := stencil.BorderPieces
		if c.rows {
			split = stencil.RowPieces
		}
		interior, pieces := split(r, c.ext, env.Domain)
		fn(c.name, func(k stencil.Kernel) {
			if !interior.Empty() {
				k(env, interior)
			}
			for _, pc := range pieces {
				k(env.BindPiece(pc), pc.Region)
			}
		})
	}
}

// fillRandom writes random values into every field of env: cells of 0 or 1
// for life, whose rule tells only zero from non-zero, and values in
// [0.5, 1.5) elsewhere, where densities and depths divide.
func fillRandom(env *stencil.Env, e *Entry, kp *stencil.KernelProgram, rng *rand.Rand) {
	names := append([]string{}, kp.StepInputs...)
	for s := range kp.Stages {
		names = append(names, kp.Stages[s].Name)
	}
	for _, name := range names {
		f := env.Field(name)
		for n := range f.Data {
			if e.Name == "life" {
				f.Data[n] = float64(rng.Intn(2))
			} else {
				f.Data[n] = 0.5 + rng.Float64()
			}
		}
	}
}

// sameBits reports whether two fields hold the same bits, and else the first
// flat cell where they differ.
func sameBits(a, b *grid.Field) (int, bool) {
	for n := range a.Data {
		if math.Float64bits(a.Data[n]) != math.Float64bits(b.Data[n]) {
			return n, false
		}
	}
	return -1, true
}

// newSplitEnv allocates an environment for kp on domain with fresh step
// inputs.
func newSplitEnv(t testing.TB, kp *stencil.KernelProgram, domain grid.Size, bc stencil.Boundary) *stencil.Env {
	t.Helper()
	inputs := make(map[string]*grid.Field, len(kp.StepInputs))
	for _, name := range kp.StepInputs {
		inputs[name] = grid.NewField(name, domain)
	}
	env, err := stencil.NewEnv(&kp.Program, domain, inputs)
	if err != nil {
		t.Fatal(err)
	}
	env.BC = bc
	return env
}

// checkSplitStage runs stage s's Slow path over r and its Fast path over
// each of the compiler's cuts of r, from the same fields, and fails unless
// the whole output field agrees bit for bit.
func checkSplitStage(t testing.TB, what string, kp *stencil.KernelProgram, s int, env *stencil.Env, r grid.Region) {
	t.Helper()
	fast, slow, ok := kp.SplitPaths(s)
	if !ok {
		t.Fatalf("%s: stage %q has no split form", what, kp.Stages[s].Name)
	}
	out := env.Field(kp.Stages[s].Name)
	before := out.Clone()
	slow(env, r)
	want := out.Clone()
	compilerCuts(t, kp, s, env, r, func(cut string, visit func(stencil.Kernel)) {
		out.CopyFrom(before)
		visit(fast)
		if n, ok := sameBits(want, out); !ok {
			t.Fatalf("%s: stage %q region %v, %s cut: Fast wrote %v at flat cell %d, Slow %v",
				what, kp.Stages[s].Name, r, cut, out.Data[n], n, want.Data[n])
		}
	})
}

// FuzzSplitPaths: for every stage of every solver (and every MPDATA
// variant), on a random field and region under both boundaries, Fast over
// the compiler's own cut equals Slow bit for bit. The seed corpus, which
// plain go test runs, is every stage of every variant under both boundaries
// on an odd, a degenerate and a two-cell domain, over the whole domain and a
// face-touching corner.
func FuzzSplitPaths(f *testing.F) {
	names := Names()
	for si, name := range names {
		e, err := Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		for vi, o := range programVariants(e) {
			kp, err := e.NewProgram(o)
			if err != nil {
				f.Fatal(err)
			}
			for s := range kp.Stages {
				for _, periodic := range []bool{false, true} {
					for _, d := range [][3]uint8{{8, 6, 4}, {0, 3, 0}, {1, 1, 1}} {
						// The whole domain, then the corner at the origin.
						f.Add(int64(s), uint8(si), uint8(vi), uint8(s), d[0], d[1], d[2],
							uint8(0), uint8(255), uint8(0), uint8(255), uint8(0), uint8(255), periodic)
						f.Add(int64(s), uint8(si), uint8(vi), uint8(s), d[0], d[1], d[2],
							uint8(0), d[0]/2+1, uint8(0), d[1]/2+1, uint8(0), d[2]/2+1, periodic)
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, solverIdx, variantIdx, stageIdx, ni, nj, nk, i0, i1, j0, j1, k0, k1 uint8, periodic bool) {
		e, err := Lookup(names[int(solverIdx)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		variants := programVariants(e)
		kp, err := e.NewProgram(variants[int(variantIdx)%len(variants)])
		if err != nil {
			t.Fatal(err)
		}
		s := int(stageIdx) % len(kp.Stages)
		domain := splitDomain(e, 1+int(ni)%10, 1+int(nj)%10, 1+int(nk)%10)
		span := func(a, b uint8, n int) (int, int) {
			x, y := min(int(a), n), min(int(b), n)
			return min(x, y), max(x, y)
		}
		var r grid.Region
		r.I0, r.I1 = span(i0, i1, domain.NI)
		r.J0, r.J1 = span(j0, j1, domain.NJ)
		r.K0, r.K1 = span(k0, k1, domain.NK)
		bc := stencil.Clamp
		if periodic {
			bc = stencil.Periodic
		}
		env := newSplitEnv(t, kp, domain, bc)
		fillRandom(env, e, kp, rand.New(rand.NewSource(seed)))
		checkSplitStage(t, e.Name, kp, s, env, r)
	})
}

// TestFastPathsRespectDeclaredOffsets is MPDATA's NaN-poisoning test
// (internal/mpdata TestKernelsRespectDeclaredOffsets) for every solver's
// split paths: every producer is poisoned with NaN outside the cells the
// stage's declared offsets reach from the target region — resolved through
// the boundary condition, so targets at the domain faces are covered too —
// and both the Slow path over the target and the Fast path over each of the
// compiler's cuts of it must reproduce the unpoisoned result exactly.
func TestFastPathsRespectDeclaredOffsets(t *testing.T) {
	for _, name := range Names() {
		e, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := e.NewProgram(Options{})
		if err != nil {
			t.Fatal(err)
		}
		domain := splitDomain(e, 14, 12, 8)
		targets := []grid.Region{
			grid.Box(5, 9, 4, 8, 0, domain.NK),
			grid.Box(0, 3, 9, 12, 0, domain.NK),
			grid.Box(11, 14, 0, 12, domain.NK/2, domain.NK),
		}
		for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
			clean := newSplitEnv(t, kp, domain, bc)
			fillRandom(clean, e, kp, rand.New(rand.NewSource(int64(len(name)))))
			for s := range kp.Stages {
				fast, slow, _ := kp.SplitPaths(s)
				for _, target := range targets {
					env := newSplitEnv(t, kp, domain, bc)
					for _, in := range kp.StepInputs {
						poison(env.Field(in), clean.Field(in), kp.Stages[s].Reads(in), target, bc)
					}
					for p := range kp.Stages {
						pname := kp.Stages[p].Name
						poison(env.Field(pname), clean.Field(pname), kp.Stages[s].Reads(pname), target, bc)
					}
					out := kp.Stages[s].Name
					slow(clean, target)
					want := clean.Field(out).Clone()
					check := func(path string) {
						got := env.Field(out)
						stencil.ForEach(target, func(i, j, k int) {
							if g, w := got.At(i, j, k), want.At(i, j, k); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s %s: stage %q %s over %v reads outside its declared offsets: (%d,%d,%d) = %v, want %v",
									name, domain, out, path, target, i, j, k, g, w)
							}
						})
					}
					slow(env, target)
					check("Slow")
					compilerCuts(t, kp, s, env, target, func(cut string, visit func(stencil.Kernel)) {
						env.Field(out).Fill(0)
						visit(fast)
						check("Fast (" + cut + " cut)")
					})
				}
			}
		}
	}
}

// poison copies src into dst, leaving NaN in every cell that no declared
// offset reaches from a cell of target under the boundary condition.
func poison(dst, src *grid.Field, offs []stencil.Offset, target grid.Region, bc stencil.Boundary) {
	dst.Fill(math.NaN())
	d := src.Size
	resolve := func(x, n int) int {
		if bc == stencil.Periodic {
			return stencil.Wrap(x, n)
		}
		return stencil.ClampIdx(x, n)
	}
	stencil.ForEach(target, func(i, j, k int) {
		for _, o := range offs {
			a, b, c := resolve(i+o.DI, d.NI), resolve(j+o.DJ, d.NJ), resolve(k+o.DK, d.NK)
			dst.Set(a, b, c, src.At(a, b, c))
		}
	})
}
