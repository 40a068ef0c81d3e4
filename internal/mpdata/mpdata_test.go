package mpdata

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"islands/internal/grid"
	"islands/internal/stencil"
)

func TestProgramValidates(t *testing.T) {
	kp := NewProgram()
	if err := kp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(kp.Stages); got != 17 {
		t.Fatalf("stage count = %d, want 17", got)
	}
	if _, err := stencil.Analyze(&kp.Program); err != nil {
		t.Fatal(err)
	}
}

func TestProgramFlopCount(t *testing.T) {
	// 229 flops/cell/step is the mechanical count of the 17 kernels and is
	// consistent with the paper's sustained-performance numbers (Table 4):
	// 42.7 Gflop/s * 9.0 s / (50 steps * 1024*512*64 cells) ~= 229.
	kp := NewProgram()
	if got := kp.TotalFlopsPerCellStep(); got != 229 {
		t.Fatalf("TotalFlopsPerCellStep = %d, want 229", got)
	}
}

func TestProgramHaloExtents(t *testing.T) {
	kp := NewProgram()
	h, err := stencil.Analyze(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	// The final stage is computed exactly on the target region.
	out := kp.StageIndex(OutPsi)
	if !h.StageExtents[out].IsZero() {
		t.Fatalf("output extent = %v, want zero", h.StageExtents[out])
	}
	// The step input psi needs the widest halo; it must be symmetric in i
	// and j (the program treats both dimensions alike), and small (a few
	// cells), matching the paper's claim that redundant regions are thin.
	pe := h.InputExtents[InPsi]
	if pe.ILo != pe.JLo || pe.IHi != pe.JHi {
		t.Fatalf("psi extent not i/j symmetric: %v", pe)
	}
	if pe.ILo < 2 || pe.ILo > 5 || pe.IHi < 2 || pe.IHi > 5 {
		t.Fatalf("psi extent out of expected band: %v", pe)
	}
	// Every stage's extent must be dominated by the input's requirement
	// composed with that stage's own read pattern (sanity of ordering).
	for s := range kp.Stages {
		e := h.StageExtents[s]
		if e.ILo < 0 || e.IHi < 0 || e.JLo < 0 || e.JHi < 0 || e.KLo < 0 || e.KHi < 0 {
			t.Fatalf("negative extent at stage %s: %v", kp.Stages[s].Name, e)
		}
	}
}

// TestKernelsRespectDeclaredOffsets poisons every producer with NaN outside
// the region its declared offsets permit, runs each kernel, and checks the
// output is NaN-free. This pins the Input declarations — which drive the
// halo analysis and hence the islands' redundant regions — to the kernels'
// actual memory accesses.
func TestKernelsRespectDeclaredOffsets(t *testing.T) {
	kp := NewProgram()
	domain := grid.Sz(24, 24, 24)
	target := grid.Box(10, 14, 10, 14, 10, 14)

	state := NewState(domain)
	state.Psi.FillFunc(func(i, j, k int) float64 { return 1 + 0.1*math.Sin(float64(i+2*j+3*k)) })
	state.SetUniformVelocity(0.2, -0.15, 0.1)

	for si := range kp.Stages {
		env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
		if err != nil {
			t.Fatal(err)
		}
		// Produce valid values for all earlier stages over the whole
		// domain first.
		whole := grid.WholeRegion(domain)
		for pi := 0; pi < si; pi++ {
			kp.Kernels[pi](env, whole)
		}
		// Poison each producer outside its permitted region. Inputs the
		// stage does not read are fully poisoned.
		names := append([]string{}, kp.StepInputs...)
		for pi := 0; pi < si; pi++ {
			names = append(names, kp.Stages[pi].Name)
		}
		// Step inputs are shared with state; poison copies instead.
		poisoned := make(map[string]*grid.Field)
		for _, name := range names {
			f := env.Field(name).Clone()
			allowed := grid.Region{}
			if offs := kp.Stages[si].Reads(name); offs != nil {
				allowed = stencil.OffsetsExtent(offs).Apply(target)
			}
			stencil.ForEach(whole, func(i, j, k int) {
				if !allowed.Contains(i, j, k) {
					f.Set(i, j, k, math.NaN())
				}
			})
			poisoned[name] = f
		}
		penv, err := stencil.NewEnv(&kp.Program, domain, map[string]*grid.Field{
			InPsi: poisoned[InPsi], InU1: poisoned[InU1], InU2: poisoned[InU2],
			InU3: poisoned[InU3], InH: poisoned[InH],
		})
		if err != nil {
			t.Fatal(err)
		}
		for pi := 0; pi < si; pi++ {
			penv.Field(kp.Stages[pi].Name).CopyFrom(poisoned[kp.Stages[pi].Name])
		}
		kp.Kernels[si](penv, target)
		out := penv.Field(kp.Stages[si].Name)
		stencil.ForEach(target, func(i, j, k int) {
			if math.IsNaN(out.At(i, j, k)) {
				t.Fatalf("stage %s reads outside its declared offsets (NaN at %d,%d,%d)",
					kp.Stages[si].Name, i, j, k)
			}
		})
	}
}

func TestZeroVelocityIsIdentity(t *testing.T) {
	state := NewState(grid.Sz(12, 10, 8))
	state.SetGaussian(6, 5, 4, 2, 3, 0.5)
	before := state.Psi.Clone()
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(3)
	if d := grid.MaxAbsDiff(before, state.Psi); d != 0 {
		t.Fatalf("zero velocity changed psi by %g", d)
	}
}

func TestConservation(t *testing.T) {
	state := NewState(grid.Sz(16, 16, 8))
	state.SetGaussian(8, 8, 4, 2.5, 2, 0.1)
	state.SetUniformVelocity(0.2, 0.15, -0.1)
	mass0 := state.Psi.Sum()
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(20)
	mass1 := state.Psi.Sum()
	if rel := math.Abs(mass1-mass0) / math.Abs(mass0); rel > 1e-12 {
		t.Fatalf("mass drift: %v -> %v (rel %.2e)", mass0, mass1, rel)
	}
}

func TestPositivity(t *testing.T) {
	state := NewState(grid.Sz(16, 16, 8))
	// Sharp sphere over a tiny positive background: a stress test for
	// positive definiteness.
	state.SetSphere(8, 8, 4, 3, 5, 1e-6)
	state.SetUniformVelocity(0.3, 0.2, 0.1)
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 25; step++ {
		s.Step(1)
		if m := state.Psi.Min(); m < 0 {
			t.Fatalf("negative psi %g after step %d", m, step+1)
		}
	}
}

func TestNonOscillatoryBounds(t *testing.T) {
	state := NewState(grid.Sz(20, 16, 8))
	state.SetSphere(10, 8, 4, 3, 4, 1)
	state.SetUniformVelocity(0.25, -0.2, 0.05)
	lo, hi := state.Psi.Min(), state.Psi.Max()
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(15)
	const tol = 1e-12
	if m := state.Psi.Min(); m < lo-tol {
		t.Fatalf("new minimum %g undershoots initial %g", m, lo)
	}
	if m := state.Psi.Max(); m > hi+tol {
		t.Fatalf("new maximum %g overshoots initial %g", m, hi)
	}
}

func TestCourantOneIsExactShift(t *testing.T) {
	// With |C|=1 along i and no transverse velocity, donor-cell advection
	// is exact and the antidiffusive velocities vanish: each step is an
	// exact one-cell shift.
	state := NewState(grid.Sz(16, 4, 4))
	state.SetGaussian(5, 2, 2, 1.5, 2, 0.2)
	state.SetUniformVelocity(1, 0, 0)
	want := state.Psi.Clone()
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(3)
	shifted := grid.NewField("want", state.Domain)
	shifted.FillFunc(func(i, j, k int) float64 {
		return want.At(stencil.Wrap(i-3, 16), j, k)
	})
	if d := grid.MaxAbsDiff(shifted, state.Psi); d > 1e-13 {
		t.Fatalf("C=1 shift error %g", d)
	}
}

// upwindOnly advances psi with the first-order donor-cell scheme, the
// baseline MPDATA corrects.
func upwindOnly(state *State, steps int) *grid.Field {
	psi := state.Psi.Clone()
	next := grid.NewField("next", state.Domain)
	d := state.Domain
	at := func(f *grid.Field, i, j, k int) float64 {
		return f.At(stencil.Wrap(i, d.NI), stencil.Wrap(j, d.NJ), stencil.Wrap(k, d.NK))
	}
	for t := 0; t < steps; t++ {
		next.FillFunc(func(i, j, k int) float64 {
			fR := donor(at(psi, i, j, k), at(psi, i+1, j, k), state.U1.At(i, j, k))
			fL := donor(at(psi, i-1, j, k), at(psi, i, j, k), at(state.U1, i-1, j, k))
			gR := donor(at(psi, i, j, k), at(psi, i, j+1, k), state.U2.At(i, j, k))
			gL := donor(at(psi, i, j-1, k), at(psi, i, j, k), at(state.U2, i, j-1, k))
			hR := donor(at(psi, i, j, k), at(psi, i, j, k+1), state.U3.At(i, j, k))
			hL := donor(at(psi, i, j, k-1), at(psi, i, j, k), at(state.U3, i, j, k-1))
			return psi.At(i, j, k) - (fR - fL + gR - gL + hR - hL)
		})
		psi.CopyFrom(next)
	}
	return psi
}

func TestMPDATABeatsUpwind(t *testing.T) {
	// Translate a Gaussian by a whole period; compare against the exact
	// solution (the initial condition). The corrected MPDATA result must
	// be markedly more accurate than first-order upwind.
	domain := grid.Sz(32, 8, 4)
	mk := func() *State {
		st := NewState(domain)
		st.SetGaussian(16, 4, 2, 2.5, 1, 0.05)
		st.SetUniformVelocity(0.5, 0, 0)
		return st
	}
	steps := 64 // 0.5 * 64 = 32 cells = one period

	stateM := mk()
	exact := stateM.Psi.Clone()
	s, err := NewSolver(stateM)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(steps)
	errM := grid.L2Diff(exact, stateM.Psi)

	stateU := mk()
	psiU := upwindOnly(stateU, steps)
	errU := grid.L2Diff(exact, psiU)

	if errM >= errU/2 {
		t.Fatalf("MPDATA error %g not clearly below upwind error %g", errM, errU)
	}
	if errM > 0.05 {
		t.Fatalf("MPDATA error %g unexpectedly large", errM)
	}
}

func TestRotationZ(t *testing.T) {
	// Quarter solid-body rotation of an off-center blob: mass conserved,
	// positivity kept, and the blob's center of mass rotates by ~90 deg.
	domain := grid.Sz(32, 32, 4)
	state := NewState(domain)
	state.SetGaussian(24, 16, 2, 2, 1, 0) // 8 cells right of center
	omega := 0.02
	state.SetRotationVelocityZ(omega)
	if c := state.MaxCourant(); c > 1 {
		t.Fatalf("unstable setup: max Courant %g", c)
	}
	steps := int(math.Round(math.Pi / 2 / omega))
	mass0 := state.Psi.Sum()
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(steps)

	if rel := math.Abs(state.Psi.Sum()-mass0) / mass0; rel > 1e-12 {
		t.Fatalf("mass drift %e", rel)
	}
	if m := state.Psi.Min(); m < -1e-12 {
		t.Fatalf("negative psi %g", m)
	}
	// Center of mass should now sit ~8 cells above center.
	var mx, my, m float64
	for i := 0; i < domain.NI; i++ {
		for j := 0; j < domain.NJ; j++ {
			for k := 0; k < domain.NK; k++ {
				v := state.Psi.At(i, j, k)
				mx += v * (float64(i) + 0.5)
				my += v * (float64(j) + 0.5)
				m += v
			}
		}
	}
	cx, cy := mx/m-16, my/m-16
	if math.Abs(cx) > 1.0 || math.Abs(cy-8) > 1.0 {
		t.Fatalf("center of mass (%.2f,%.2f), want ~(0,8)", cx, cy)
	}
}

func TestStateHelpers(t *testing.T) {
	state := NewState(grid.Sz(8, 8, 8))
	if state.H.At(3, 3, 3) != 1 {
		t.Fatal("H must default to 1")
	}
	state.SetUniformVelocity(0.1, 0.2, 0.3)
	if got := state.MaxCourant(); math.Abs(got-0.6) > 1e-15 {
		t.Fatalf("MaxCourant = %v, want 0.6", got)
	}
	c := state.Clone()
	c.Psi.Set(0, 0, 0, 99)
	if state.Psi.At(0, 0, 0) == 99 {
		t.Fatal("Clone shares psi storage")
	}
	m := state.InputMap()
	if len(m) != 5 || m[InPsi] != state.Psi {
		t.Fatal("InputMap incomplete")
	}
}

func TestDonorFlux(t *testing.T) {
	if got := donor(2, 5, 0.5); got != 1 {
		t.Fatalf("donor(+u) = %v, want 1", got)
	}
	if got := donor(2, 5, -0.5); got != -2.5 {
		t.Fatalf("donor(-u) = %v, want -2.5", got)
	}
	if got := donor(2, 5, 0); got != 0 {
		t.Fatalf("donor(0) = %v, want 0", got)
	}
}

func TestSolverStepsCounter(t *testing.T) {
	state := NewState(grid.Sz(4, 4, 4))
	s, err := NewSolver(state)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(2)
	s.Step(3)
	if s.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", s.Steps)
	}
}

// TestStandardProblemWindowKeepsEveryCellsExpression: the fill runs on plane
// chunks across the cores; each cell must still carry the bits of the serial
// per-cell expressions at its global coordinates, whole domain or tile window,
// with more cores than planes or fewer.
func TestStandardProblemWindowKeepsEveryCellsExpression(t *testing.T) {
	global := grid.Sz(11, 7, 5)
	ci, cj, ck := float64(global.NI)/2, float64(global.NJ)/2, float64(global.NK)/2
	omega := 0.5 / (ci + cj)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ ni, lo, procs int }{{11, 0, 1}, {11, 0, 3}, {4, 6, 2}, {2, 9, 8}} {
		runtime.GOMAXPROCS(c.procs)
		s := NewState(grid.Sz(c.ni, global.NJ, global.NK))
		for _, f := range []*grid.Field{s.Psi, s.U1, s.U2, s.U3, s.H} {
			f.Fill(-7)
		}
		s.StandardProblemWindow(global, func(li int) int { return li + c.lo })
		stencil.ForEach(grid.WholeRegion(s.Domain), func(i, j, k int) {
			want := map[*grid.Field]float64{
				s.Psi: standardPsiAt(i+c.lo, j, k, ci, cj, ck, float64(global.NK)/4),
				s.U1:  -omega * (float64(j) + 0.5 - cj),
				s.U2:  omega * (float64(i+c.lo) + 0.5 - ci),
				s.U3:  0,
				s.H:   1,
			}
			for f, w := range want {
				if got := f.At(i, j, k); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("window %+v: %s(%d,%d,%d) = %v, want %v", c, f.Name(), i, j, k, got, w)
				}
			}
		})
	}
}

// TestPseudoVelocityMatchesTheOldExpression bounds the move to one division
// per face. The kernels take the pseudo velocity over a common denominator;
// the five-division form they replaced lives on only here, as a math oracle.
// A seeded sweep fills ψ with zeros and values log-uniform in [1e-300, 1e90],
// h in [1e-3, 1e3] and the Courant numbers in [-1, 1], runs the three
// pseudo-velocity stages (fast interior, boundary shell) and requires every
// face value finite and within 1e-14·(|A term| + |cross term|) of the old
// expression's. Both terms are differences — |U|·A − |U|²/h̄·A and
// U·Ū_a·B_a/h̄ + U·Ū_b·B_b/h̄ — that cancel where their parts are close, and
// the two forms round those parts differently; so a term's size here is the
// sum of its parts' magnitudes, the scale a rounding error is relative to.
// Where ψ is tiny next to its neighbours (below ≈ 1e-278 at ordinary sizes)
// a product in the new numerator falls into the subnormals and keeps only an
// absolute accuracy of a few units of the smallest subnormal; the common
// denominator is at least h̄·Eps³, so the bound has the floor
// 16·2⁻¹⁰⁷⁴/(h̄·Eps³), about 8e-278 at h̄ = 1.
func TestPseudoVelocityMatchesTheOldExpression(t *testing.T) {
	stages := []stencil.KernelStage{
		pseudoVelStageNamed("v1", 0, InPsi, InU1, InU2, InU3),
		pseudoVelStageNamed("v2", 1, InPsi, InU1, InU2, InU3),
		pseudoVelStageNamed("v3", 2, InPsi, InU1, InU2, InU3),
	}
	kp, err := stencil.BuildProgram("pseudo-velocity", StepInputs(), "v3", stages)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(9, 8, 7)
	whole := grid.WholeRegion(domain)
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := NewState(domain)
		uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
		state.Psi.FillFunc(func(i, j, k int) float64 {
			if rng.Intn(4) == 0 {
				return 0
			}
			return math.Pow(10, uniform(-300, 90))
		})
		state.H.FillFunc(func(i, j, k int) float64 { return math.Pow(10, uniform(-3, 3)) })
		for _, u := range []*grid.Field{state.U1, state.U2, state.U3} {
			u.FillFunc(func(i, j, k int) float64 { return uniform(-1, 1) })
		}
		env, err := stencil.NewEnv(&kp.Program, domain, state.InputMap())
		if err != nil {
			t.Fatal(err)
		}
		env.BC = stencil.Clamp
		if seed%2 == 0 {
			env.BC = stencil.Periodic
		}
		for _, kern := range kp.Kernels {
			kern(env, whole)
		}
		for dir, name := range []string{"v1", "v2", "v3"} {
			out := env.Field(name)
			stencil.ForEach(whole, func(i, j, k int) {
				got := out.At(i, j, k)
				want, aSize, crossSize, hbar := oldPseudoVelocity(env, dir, i, j, k)
				if math.IsNaN(got) || math.IsInf(got, 0) {
					t.Fatalf("seed %d %s(%d,%d,%d) = %v", seed, name, i, j, k, got)
				}
				floor := 16 * math.SmallestNonzeroFloat64 / (hbar * Eps * Eps * Eps)
				if d := math.Abs(got - want); d > 1e-14*(aSize+crossSize)+floor {
					t.Fatalf("seed %d %s(%d,%d,%d) = %v, the five-division form gives %v (A term size %v, cross term size %v)",
						seed, name, i, j, k, got, want, aSize, crossSize)
				}
			})
		}
	}
}

// oldPseudoVelocity evaluates the antidiffusive velocity at (i,j,k) in
// direction dir as the kernels did before the common denominator,
//
//	v = |U|·(1 − |U|/h̄)·A − U·(Ū_a·B_a + Ū_b·B_b)/h̄
//
// with A, B_a and B_b each divided out, and returns v, the sizes of its two
// terms (the sums of their parts' magnitudes) and h̄.
func oldPseudoVelocity(env *stencil.Env, dir, i, j, k int) (v, aSize, crossSize, hbar float64) {
	us := [3]*grid.Field{env.Field(InU1), env.Field(InU2), env.Field(InU3)}
	ps, h := env.Field(InPsi), env.Field(InH)
	d, a, b := unit(dir), unit((dir+1)%3), unit((dir+2)%3)
	at := func(f *grid.Field, o ...stencil.Offset) float64 {
		di, dj, dk := i, j, k
		for _, x := range o {
			di, dj, dk = di+x.DI, dj+x.DJ, dk+x.DK
		}
		return env.AtP(f, di, dj, dk)
	}
	na, nb := off(-a.DI, -a.DJ, -a.DK), off(-b.DI, -b.DJ, -b.DK)
	uf, ua, ub := at(us[dir]), us[(dir+1)%3], us[(dir+2)%3]
	hbar = 0.5 * (at(h) + at(h, d))
	p0, pd := at(ps), at(ps, d)
	aTerm := (pd - p0) / (pd + p0 + Eps)
	paP, paM := at(ps, a)+at(ps, d, a), at(ps, na)+at(ps, d, na)
	bA := 0.5 * (paP - paM) / (paP + paM + Eps)
	pbP, pbM := at(ps, b)+at(ps, d, b), at(ps, nb)+at(ps, d, nb)
	bB := 0.5 * (pbP - pbM) / (pbP + pbM + Eps)
	uaBar := 0.25 * (at(ua) + at(ua, na) + at(ua, d) + at(ua, d, na))
	ubBar := 0.25 * (at(ub) + at(ub, nb) + at(ub, d) + at(ub, d, nb))
	au := absf(uf)
	v = au*(1-au/hbar)*aTerm - uf*(uaBar*bA+ubBar*bB)/hbar
	aSize = au * (1 + au/hbar) * math.Abs(aTerm)
	crossSize = au * (math.Abs(uaBar*bA) + math.Abs(ubBar*bB)) / hbar
	return v, aSize, crossSize, hbar
}
