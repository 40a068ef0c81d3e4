package gcr

import (
	"math"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// manufactured builds the Poisson problem A·x* = b for a polynomial bump
// x* = 64·ξ(1−ξ)·η(1−η)·ζ(1−ζ) (zero on the Dirichlet boundary, exciting
// every eigenmode of the discrete Laplacian), and returns (x*, b).
func manufactured(domain grid.Size) (*grid.Field, *grid.Field) {
	xs := grid.NewField("exact", domain)
	bump := func(idx, n int) float64 {
		xi := float64(idx+1) / float64(n+1)
		return xi * (1 - xi)
	}
	xs.FillFunc(func(i, j, k int) float64 {
		return 64 * bump(i, domain.NI) * bump(j, domain.NJ) * bump(k, domain.NK)
	})
	b := grid.NewField("b", domain)
	Laplacian(domain)(b, xs, grid.WholeRegion(domain))
	return xs, b
}

func TestLaplacianSymmetryAndPositivity(t *testing.T) {
	domain := grid.Sz(6, 5, 4)
	apply := Laplacian(domain)
	whole := grid.WholeRegion(domain)
	// <Au, v> == <u, Av> on a few random-ish vectors; <Au, u> > 0 for u != 0.
	u := grid.NewField("u", domain)
	v := grid.NewField("v", domain)
	u.FillFunc(func(i, j, k int) float64 { return float64((i*5+j*3+k*7)%11) - 5 })
	v.FillFunc(func(i, j, k int) float64 { return float64((i*2+j*9+k)%7) - 3 })
	au := grid.NewField("au", domain)
	av := grid.NewField("av", domain)
	apply(au, u, whole)
	apply(av, v, whole)
	dot := func(a, b *grid.Field) float64 {
		var s float64
		for n := range a.Data {
			s += a.Data[n] * b.Data[n]
		}
		return s
	}
	if d1, d2 := dot(au, v), dot(u, av); math.Abs(d1-d2) > 1e-9*math.Abs(d1) {
		t.Fatalf("operator not symmetric: %v vs %v", d1, d2)
	}
	if dot(au, u) <= 0 {
		t.Fatal("operator not positive definite")
	}
}

func TestSolvePoissonSequential(t *testing.T) {
	domain := grid.Sz(16, 14, 12)
	exact, b := manufactured(domain)
	s := NewSolver(domain, Laplacian(domain), Options{Tol: 1e-10})
	x := grid.NewField("x", domain)
	res, err := s.Solve(x, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if d := grid.MaxAbsDiff(exact, x); d > 1e-8 {
		t.Fatalf("solution error %g", d)
	}
	t.Logf("converged in %d iterations to %.2e", res.Iterations, res.Residual)
}

// TestSmootherCompiledMatchesReference is the package's parallel-execution
// coverage since the scheduler-parallel vector machinery was removed: the
// damped-Jacobi smoother program run through the compiled islands executor
// (the path the solver catalog serves) must be bit-identical to
// SmootherReference under both boundary conditions and with temporal
// blocking.
func TestSmootherCompiledMatchesReference(t *testing.T) {
	machine, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(22, 14, 6)
	seed := func() (*grid.Field, *grid.Field) {
		x := grid.NewField("x", domain)
		b := grid.NewField("b", domain)
		x.FillFunc(func(i, j, k int) float64 { return float64((i*5+j*3+k*7)%11) - 5 })
		b.FillFunc(func(i, j, k int) float64 { return float64((i*2+j*9+k)%7) - 3 })
		return x, b
	}
	const sweeps = 6
	for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
		for _, ksteps := range []int{1, 2} {
			want, wb := seed()
			if err := SmootherReference(want, wb, sweeps, bc); err != nil {
				t.Fatal(err)
			}
			prog, err := NewSmootherProgram()
			if err != nil {
				t.Fatal(err)
			}
			x, b := seed()
			r, err := exec.NewRunner(exec.Config{
				Machine: machine, Strategy: exec.IslandsOfCores, Boundary: bc,
				Steps: sweeps, BlockI: 5, KSteps: ksteps,
			}, prog, map[string]*grid.Field{InX: x, InB: b}, InX)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			r.SyncFeedback()
			r.Close()
			if d := grid.MaxAbsDiff(want, x); d != 0 {
				t.Fatalf("bc=%v k=%d: compiled smoother differs from reference by %g", bc, ksteps, d)
			}
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	domain := grid.Sz(8, 8, 8)
	s := NewSolver(domain, Laplacian(domain), Options{})
	x := grid.NewField("x", domain)
	x.Fill(3)
	res, err := s.Solve(x, grid.NewField("b", domain))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS must converge immediately: %+v", res)
	}
	if x.Max() != 0 || x.Min() != 0 {
		t.Fatal("zero RHS must zero the solution")
	}
}

func TestSolveWarmStart(t *testing.T) {
	domain := grid.Sz(12, 12, 8)
	exact, b := manufactured(domain)
	cold := NewSolver(domain, Laplacian(domain), Options{Tol: 1e-10})
	xc := grid.NewField("xc", domain)
	rc, err := cold.Solve(xc, b)
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution: convergence in ~0 iterations.
	warm := NewSolver(domain, Laplacian(domain), Options{Tol: 1e-10})
	xw := exact.Clone()
	rw, err := warm.Solve(xw, b)
	if err != nil {
		t.Fatal(err)
	}
	if rw.Iterations > 1 || rw.Iterations >= rc.Iterations {
		t.Fatalf("warm start took %d iterations (cold: %d)", rw.Iterations, rc.Iterations)
	}
}

func TestSolveRestartDepths(t *testing.T) {
	domain := grid.Sz(12, 10, 8)
	_, b := manufactured(domain)
	var iters []int
	for _, k := range []int{1, 3, 6} {
		s := NewSolver(domain, Laplacian(domain), Options{K: k, Tol: 1e-8})
		x := grid.NewField("x", domain)
		res, err := s.Solve(x, b)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("K=%d did not converge", k)
		}
		iters = append(iters, res.Iterations)
	}
	// Deeper restarts cannot be (much) worse.
	if iters[2] > iters[0] {
		t.Fatalf("K=6 (%d iters) worse than K=1 (%d)", iters[2], iters[0])
	}
}

func TestSolveMaxIterBudget(t *testing.T) {
	domain := grid.Sz(20, 20, 12)
	_, b := manufactured(domain)
	s := NewSolver(domain, Laplacian(domain), Options{MaxIter: 2, Tol: 1e-14})
	x := grid.NewField("x", domain)
	res, err := s.Solve(x, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged || res.Iterations != 2 {
		t.Fatalf("budget not honoured: %+v", res)
	}
}

func TestSolveSizeMismatch(t *testing.T) {
	s := NewSolver(grid.Sz(8, 8, 8), Laplacian(grid.Sz(8, 8, 8)), Options{})
	x := grid.NewField("x", grid.Sz(4, 8, 8))
	if _, err := s.Solve(x, grid.NewField("b", grid.Sz(8, 8, 8))); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

// TestResidualMonotone: GCR minimizes the residual over the Krylov space —
// the residual norm must never increase.
func TestResidualMonotone(t *testing.T) {
	domain := grid.Sz(16, 12, 8)
	_, b := manufactured(domain)
	var last = math.Inf(1)
	for _, budget := range []int{1, 2, 4, 8, 16} {
		s := NewSolver(domain, Laplacian(domain), Options{MaxIter: budget, Tol: 1e-30})
		x := grid.NewField("x", domain)
		res, err := s.Solve(x, b)
		if err != nil {
			t.Fatal(err)
		}
		if res.Residual > last+1e-12 {
			t.Fatalf("residual grew: %g after %d iters (was %g)", res.Residual, budget, last)
		}
		last = res.Residual
	}
}

// TestPreconditionerReducesIterations: EULAG-style preconditioned GCR.
func TestPreconditionerReducesIterations(t *testing.T) {
	domain := grid.Sz(20, 16, 12)
	exact, b := manufactured(domain)
	run := func(sweeps int) (*Result, *grid.Field) {
		s := NewSolver(domain, Laplacian(domain), Options{Tol: 1e-9, PrecondSweeps: sweeps})
		x := grid.NewField("x", domain)
		res, err := s.Solve(x, b)
		if err != nil {
			t.Fatal(err)
		}
		return res, x
	}
	plain, _ := run(0)
	pre, xp := run(3)
	if !plain.Converged || !pre.Converged {
		t.Fatalf("convergence failure: %+v / %+v", plain, pre)
	}
	if pre.Iterations >= plain.Iterations {
		t.Fatalf("preconditioning did not help: %d vs %d iterations", pre.Iterations, plain.Iterations)
	}
	if d := grid.MaxAbsDiff(exact, xp); d > 1e-7 {
		t.Fatalf("preconditioned solution error %g", d)
	}
	t.Logf("iterations: %d plain, %d with 3 relaxation sweeps", plain.Iterations, pre.Iterations)
}

// TestSmootherReducesResidual: the compiled-path smoother is an actual
// approximate inverse — sweeps of it shrink the 7-point residual ||b − A·x||
// monotonically on a smooth problem.
func TestSmootherReducesResidual(t *testing.T) {
	domain := grid.Sz(16, 12, 10)
	x := grid.NewField("x", domain)
	b := grid.NewField("b", domain)
	b.FillFunc(func(i, j, k int) float64 { return float64((i+j+k)%5) - 2 })
	env := &stencil.Env{Domain: domain, BC: stencil.Clamp}
	residual := func() float64 {
		var sum float64
		stencil.ForEach(grid.WholeRegion(domain), func(i, j, k int) {
			r := b.At(i, j, k) - applyA(env, x, i, j, k)
			sum += r * r
		})
		return math.Sqrt(sum)
	}
	last := residual()
	for s := 0; s < 4; s++ {
		if err := SmootherReference(x, b, 2, stencil.Clamp); err != nil {
			t.Fatal(err)
		}
		cur := residual()
		if cur >= last {
			t.Fatalf("residual did not drop after sweeps %d..%d: %g -> %g", 2*s, 2*s+2, last, cur)
		}
		last = cur
	}
}
