package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// 2D wave equation under leapfrog time integration — the two-buffer
// feedback workload. Leapfrog needs both u^{n} and u^{n-1}; the executor
// swaps exactly one field per step, so the two time levels pack along k
// (NK must be exactly 2: k=0 holds u^{n-1}, k=1 holds u^{n}) and one
// program application rotates both at once: the output's k=0 plane copies
// the old u^{n} and its k=1 plane carries u^{n+1}. A single feedback swap
// is then the whole time-level rotation.

const (
	wavePrev = 0 // k plane of u^{n-1}
	waveCur  = 1 // k plane of u^{n}
	waveNC   = 2
)

// waveC2 is the squared Courant number c·dt/dx of the leapfrog update
// (stability needs <= 1/2 in 2D).
const waveC2 = 0.25

const waveIn = "u"

func init() {
	offsets := []stencil.Offset{
		{}, {DK: -1}, {DK: 1},
		{DI: -1}, {DI: 1}, {DJ: -1}, {DJ: 1},
	}
	inputs := []stencil.Input{{From: waveIn, Offsets: offsets}}
	slow := func(env *stencil.Env, r grid.Region) {
		u, out := env.Field(waveIn), env.Field("w")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, waveUpdateAt(env, u, i, j, k))
		})
	}
	// Row-capable: both time levels are read by absolute k index, in-domain
	// under any binding, and the in-plane neighbours through the steps.
	fast := func(env *stencil.Env, r grid.Region) {
		u, out := env.Field(waveIn).Data, env.Field("w").Data
		siN, siP := env.Step(0, -1), env.Step(0, 1)
		sjN, sjP := env.Step(1, -1), env.Step(1, 1)
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			col := base - r.K0
			cur := col + waveCur
			for k := r.K0; k < r.K1; k++ {
				if k == wavePrev {
					out[col+k] = u[cur]
					continue
				}
				out[col+k] = waveLeap(u[cur], u[col+wavePrev],
					u[cur+siN], u[cur+siP], u[cur+sjN], u[cur+sjP])
			}
		})
	}
	stages := []stencil.KernelStage{{
		Stage:  stencil.Stage{Name: "w", Inputs: inputs, Flops: 8},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow, Rows: true,
	}}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("wave-leapfrog", []string{waveIn}, "w", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = waveIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "wave",
		Description: "2D wave equation, leapfrog (time levels u^n, u^n-1 packed along k)",
		CheckDomain: requireNK(waveNC, "the leapfrog time levels pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, waveIn, waveIn), nil
		},
		SetProblem: func(st *State) { waveSetProblem(st.Output(), st.Domain) },
		Reference:  waveReference,
	})
}

// waveLeap is the leapfrog step 2u − u_prev + c²∇²u at one cell from its
// current and previous levels and its four in-plane neighbours (-i, +i, -j,
// +j) at the current level: the one per-cell function of the stage's fast
// and slow paths and of the reference.
func waveLeap(c, prev, im, ip, jm, jp float64) float64 {
	lap := im + ip + jm + jp - 4*c
	return 2*c - prev + waveC2*lap
}

// waveUpdateAt computes the packed output at one cell: the k=0 plane becomes
// the old current level, the k=1 plane the leapfrog step with the in-plane
// 5-point Laplacian, its neighbours read through the environment's boundary
// condition.
func waveUpdateAt(env *stencil.Env, u *grid.Field, i, j, k int) float64 {
	if k == wavePrev {
		return u.At(i, j, waveCur)
	}
	return waveLeap(u.At(i, j, waveCur), u.At(i, j, wavePrev),
		env.AtP(u, i-1, j, waveCur), env.AtP(u, i+1, j, waveCur),
		env.AtP(u, i, j-1, waveCur), env.AtP(u, i, j+1, waveCur))
}

// waveSetProblem writes a centered Gaussian displacement at rest (both time
// levels equal, so the initial velocity is zero and the pulse splits into
// outgoing rings).
func waveSetProblem(u *grid.Field, domain grid.Size) {
	ci := float64(domain.NI) / 2
	cj := float64(domain.NJ) / 2
	sigma := math.Max(float64(min(domain.NI, domain.NJ))/8, 1)
	u.FillFunc(func(i, j, k int) float64 {
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		return math.Exp(-(di*di + dj*dj) / (2 * sigma * sigma))
	})
}

// waveReference advances the packed field sequentially with the identical
// per-cell float sequence.
func waveReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	u := st.Output()
	next := grid.NewField("wave.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, waveUpdateAt(env, u, i, j, k))
		})
		u.CopyFrom(next)
	}
	return nil
}
