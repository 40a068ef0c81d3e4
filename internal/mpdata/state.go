package mpdata

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// State holds the five input fields of an MPDATA simulation.
type State struct {
	Domain grid.Size
	Psi    *grid.Field
	U1     *grid.Field
	U2     *grid.Field
	U3     *grid.Field
	H      *grid.Field
}

// NewState allocates a state with H=1 everywhere and zero velocities.
func NewState(domain grid.Size) *State {
	s := &State{
		Domain: domain,
		Psi:    grid.NewField(InPsi, domain),
		U1:     grid.NewField(InU1, domain),
		U2:     grid.NewField(InU2, domain),
		U3:     grid.NewField(InU3, domain),
		H:      grid.NewField(InH, domain),
	}
	s.H.Fill(1)
	return s
}

// InputMap returns the step-input binding for stencil execution.
func (s *State) InputMap() map[string]*grid.Field {
	return map[string]*grid.Field{
		InPsi: s.Psi, InU1: s.U1, InU2: s.U2, InU3: s.U3, InH: s.H,
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	return &State{
		Domain: s.Domain,
		Psi:    s.Psi.Clone(),
		U1:     s.U1.Clone(),
		U2:     s.U2.Clone(),
		U3:     s.U3.Clone(),
		H:      s.H.Clone(),
	}
}

// SetUniformVelocity sets constant face Courant numbers in each direction.
// Stability of MPDATA requires |c1|+|c2|+|c3| <= 1.
func (s *State) SetUniformVelocity(c1, c2, c3 float64) {
	s.U1.Fill(c1)
	s.U2.Fill(c2)
	s.U3.Fill(c3)
}

// SetRotationVelocityZ sets a solid-body rotation around the domain's
// vertical (k) axis with the given angular Courant number omega (radians per
// step scaled by cell size): u = -omega*(y-yc), v = omega*(x-xc). Velocities
// are evaluated at face centers.
func (s *State) SetRotationVelocityZ(omega float64) {
	ic := float64(s.Domain.NI) / 2
	jc := float64(s.Domain.NJ) / 2
	s.U1.FillFunc(func(i, j, k int) float64 {
		// i-face between cells i and i+1: x = i+1, y = j+0.5
		return -omega * (float64(j) + 0.5 - jc)
	})
	s.U2.FillFunc(func(i, j, k int) float64 {
		// j-face: x = i+0.5, y = j+1
		return omega * (float64(i) + 0.5 - ic)
	})
	s.U3.Fill(0)
}

// SetGaussian places a Gaussian blob of peak amplitude amp and width sigma
// (in cells) at center (ci,cj,ck), over a background value bg.
func (s *State) SetGaussian(ci, cj, ck, sigma, amp, bg float64) {
	s.Psi.FillFunc(func(i, j, k int) float64 {
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		dk := float64(k) + 0.5 - ck
		r2 := di*di + dj*dj + dk*dk
		return bg + amp*math.Exp(-r2/(2*sigma*sigma))
	})
}

// SetSphere places a uniform sphere (value amp inside radius rad, bg
// outside) at center (ci,cj,ck) — the classic solid-body rotation test.
func (s *State) SetSphere(ci, cj, ck, rad, amp, bg float64) {
	s.Psi.FillFunc(func(i, j, k int) float64 {
		di := float64(i) + 0.5 - ci
		dj := float64(j) + 0.5 - cj
		dk := float64(k) + 0.5 - ck
		if di*di+dj*dj+dk*dk <= rad*rad {
			return amp
		}
		return bg
	})
}

// SetStandardProblem writes the repo's standard demo problem — a Gaussian
// blob at the domain center in solid-body rotation around the vertical axis —
// shared by the serving engine, mpdata-sim and the out-of-core streaming
// executor so their results are comparable bit for bit.
func (s *State) SetStandardProblem() {
	s.StandardProblemWindow(s.Domain, func(li int) int { return li })
}

// StandardProblemWindow fills s — a tile of NI_t i-planes cut from a larger
// global domain — with the standard problem, where tile plane li corresponds
// to global plane gi(li). Every cell is evaluated with the exact expressions
// of the full-domain fill at its global coordinates, so the tile's planes are
// bit-identical to the corresponding planes of SetStandardProblem on the
// global domain (the streamed-vs-resident identity rests on this). The planes
// are filled on every core; gi is called from several goroutines at once.
func (s *State) StandardProblemWindow(global grid.Size, gi func(li int) int) {
	planeCells := s.Domain.NJ * s.Domain.NK
	forPlaneChunks(s.Domain.NI, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			StandardPsiPlane(s.Psi.Data[i*planeCells:(i+1)*planeCells], global, gi(i))
		}
		s.standardVelocities(global, gi, i0, i1)
	})
}

// StandardVelocitiesWindow fills only the velocity and density fields of the
// standard problem for a tile window (see StandardProblemWindow). The
// streaming executor calls it once per tile residency — psi comes from the
// on-disk store, but the analytic velocities are cheaper to recompute at
// global coordinates than to spill and reload.
func (s *State) StandardVelocitiesWindow(global grid.Size, gi func(li int) int) {
	forPlaneChunks(s.Domain.NI, func(i0, i1 int) { s.standardVelocities(global, gi, i0, i1) })
}

// standardVelocities fills planes [i0, i1) of the velocity and density
// fields: solid-body rotation evaluated at face centers, as in
// SetRotationVelocityZ but at global plane indices.
func (s *State) standardVelocities(global grid.Size, gi func(li int) int, i0, i1 int) {
	ci := float64(global.NI) / 2
	cj := float64(global.NJ) / 2
	omega := 0.5 / (ci + cj)
	u1, u2, u3, h := s.U1.Data, s.U2.Data, s.U3.Data, s.H.Data
	n := i0 * s.Domain.NJ * s.Domain.NK
	for i := i0; i < i1; i++ {
		atI := omega * (float64(gi(i)) + 0.5 - ci)
		for j := 0; j < s.Domain.NJ; j++ {
			atJ := -omega * (float64(j) + 0.5 - cj)
			for k := 0; k < s.Domain.NK; k++ {
				u1[n], u2[n], u3[n], h[n] = atJ, atI, 0, 1
				n++
			}
		}
	}
}

// forPlaneChunks cuts the i-planes [0, ni) into one contiguous chunk per core
// and runs fill on all of them at once, returning when every chunk is done.
func forPlaneChunks(ni int, fill func(i0, i1 int)) {
	workers := min(runtime.GOMAXPROCS(0), ni)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fill(w*ni/workers, (w+1)*ni/workers)
		}(w)
	}
	fill(0, ni/workers)
	wg.Wait()
}

// standardPsiAt is the standard problem's initial psi at global cell (i,j,k):
// SetGaussian's expression with amplitude 1 over background 0.1.
func standardPsiAt(i, j, k int, ci, cj, ck, sigma float64) float64 {
	di := float64(i) + 0.5 - ci
	dj := float64(j) + 0.5 - cj
	dk := float64(k) + 0.5 - ck
	r2 := di*di + dj*dj + dk*dk
	return 0.1 + 1*math.Exp(-r2/(2*sigma*sigma))
}

// StandardPsiPlane fills dst (NJ*NK cells, j-major) with global i-plane gi of
// the standard problem's initial psi — the plane-at-a-time fill the streaming
// executor uses to seed its on-disk store without materializing the domain.
func StandardPsiPlane(dst []float64, global grid.Size, gi int) {
	ci := float64(global.NI) / 2
	cj := float64(global.NJ) / 2
	ck := float64(global.NK) / 2
	sigma := float64(global.NK) / 4
	n := 0
	for j := 0; j < global.NJ; j++ {
		for k := 0; k < global.NK; k++ {
			dst[n] = standardPsiAt(gi, j, k, ci, cj, ck, sigma)
			n++
		}
	}
}

// MaxCourant returns max(|c1|+|c2|+|c3|) over the grid, the advective
// stability number of the donor-cell pass.
func (s *State) MaxCourant() float64 {
	var m float64
	for n := range s.U1.Data {
		c := math.Abs(s.U1.Data[n]) + math.Abs(s.U2.Data[n]) + math.Abs(s.U3.Data[n])
		if c > m {
			m = c
		}
	}
	return m
}

// Solver runs MPDATA time steps sequentially over the whole domain. It is
// the reference implementation the parallel executors are validated against.
type Solver struct {
	Program *stencil.KernelProgram
	State   *State
	env     *stencil.Env
	// Steps counts completed time steps.
	Steps int
	// VelocityUpdater, when set, is invoked before every step with the
	// zero-based step index; it may rewrite the velocity fields in place,
	// enabling time-dependent flows such as the swirling-deformation
	// test. MPDATA itself is agnostic: the velocities are step inputs.
	VelocityUpdater func(step int, s *State)
}

// NewSolver builds a reference solver bound to the given state.
func NewSolver(state *State) (*Solver, error) {
	prog := NewProgram()
	env, err := stencil.NewEnv(&prog.Program, state.Domain, state.InputMap())
	if err != nil {
		return nil, fmt.Errorf("mpdata: %w", err)
	}
	return &Solver{Program: prog, State: state, env: env}, nil
}

// Env exposes the solver's execution environment (stage outputs included),
// mainly for tests.
func (s *Solver) Env() *stencil.Env { return s.env }

// SetBoundary selects the solver's boundary condition (Periodic by default).
func (s *Solver) SetBoundary(bc stencil.Boundary) { s.env.BC = bc }

// Step advances the simulation by n time steps.
func (s *Solver) Step(n int) {
	whole := grid.WholeRegion(s.State.Domain)
	for t := 0; t < n; t++ {
		if s.VelocityUpdater != nil {
			s.VelocityUpdater(s.Steps, s.State)
		}
		for _, kern := range s.Program.Kernels {
			kern(s.env, whole)
		}
		s.State.Psi.CopyFrom(s.env.Field(OutPsi))
		s.Steps++
	}
}

// SetSwirlVelocity sets the swirling-deformation field of LeVeque's classic
// test in the i-j plane, modulated in time so the flow reverses at half the
// period T (in steps) and the exact solution returns to the initial state:
//
//	u =  A sin²(πx) sin(2πy) cos(πt/T)
//	v = -A sin(2πx) sin²(πy) cos(πt/T)
//
// with x, y normalized to [0,1] and A the peak Courant number.
func (s *State) SetSwirlVelocity(amp float64, step, period int) {
	ni, nj := float64(s.Domain.NI), float64(s.Domain.NJ)
	mod := math.Cos(math.Pi * float64(step) / float64(period))
	s.U1.FillFunc(func(i, j, k int) float64 {
		x := (float64(i) + 1) / ni // i-face position
		y := (float64(j) + 0.5) / nj
		sx := math.Sin(math.Pi * x)
		return amp * sx * sx * math.Sin(2*math.Pi*y) * mod
	})
	s.U2.FillFunc(func(i, j, k int) float64 {
		x := (float64(i) + 0.5) / ni
		y := (float64(j) + 1) / nj
		sy := math.Sin(math.Pi * y)
		return -amp * math.Sin(2*math.Pi*x) * sy * sy * mod
	})
	s.U3.Fill(0)
}
