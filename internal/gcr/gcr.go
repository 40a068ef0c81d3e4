// Package gcr implements the Generalized Conjugate Residual solver — the
// other major component of the EULAG dynamic core alongside MPDATA (paper
// §1: "Besides the GCR solver, MPDATA is the second major part of the
// dynamic core of the EULAG geophysical model"; reference [3] parallelizes
// exactly this solver on the first UV generation).
//
// GCR(k) solves the elliptic pressure problem A·x = b for a 7-point
// Laplacian with homogeneous Dirichlet boundaries. In contrast to MPDATA's
// islands — which are independent within a time step — every GCR iteration
// needs global inner products, making it the communication-heavy
// counterpoint that motivates keeping the two solvers' parallelizations
// separate.
package gcr

import (
	"fmt"
	"math"

	"islands/internal/grid"
)

// Operator applies a linear operator to src over region r, writing dst.
type Operator func(dst, src *grid.Field, r grid.Region)

// Laplacian returns the standard 7-point negative Laplacian with unit grid
// spacing and homogeneous Dirichlet boundaries (reads outside the domain are
// zero): dst = 6·src − Σ neighbours.
func Laplacian(domain grid.Size) Operator {
	at := func(f *grid.Field, i, j, k int) float64 {
		if i < 0 || i >= domain.NI || j < 0 || j >= domain.NJ || k < 0 || k >= domain.NK {
			return 0
		}
		return f.At(i, j, k)
	}
	return func(dst, src *grid.Field, r grid.Region) {
		for i := r.I0; i < r.I1; i++ {
			for j := r.J0; j < r.J1; j++ {
				for k := r.K0; k < r.K1; k++ {
					v := 6*src.At(i, j, k) -
						at(src, i-1, j, k) - at(src, i+1, j, k) -
						at(src, i, j-1, k) - at(src, i, j+1, k) -
						at(src, i, j, k-1) - at(src, i, j, k+1)
					dst.Set(i, j, k, v)
				}
			}
		}
	}
}

// Options configures the solver.
type Options struct {
	// K is the restart depth (number of stored direction vectors);
	// EULAG typically uses small k. Default 3.
	K int
	// MaxIter bounds the total iterations. Default 1000.
	MaxIter int
	// Tol is the relative residual reduction target ||r||/||b||. Default 1e-8.
	Tol float64
	// PrecondSweeps, when positive, preconditions each new search
	// direction with that many damped-Jacobi relaxation sweeps (weight
	// Omega = 2/3, diagonal 6) — the cheap approximate inverse EULAG-style
	// preconditioned GCR uses (reference [3] parallelizes exactly this
	// preconditioned solver).
	PrecondSweeps int
}

func (o *Options) defaults() {
	if o.K <= 0 {
		o.K = 3
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
}

// Result reports a solve.
type Result struct {
	Iterations int
	// Residual is the final relative residual ||b - A·x|| / ||b||.
	Residual float64
	// Converged reports whether Tol was reached within MaxIter.
	Converged bool
}

// Solver holds the solve workspace. The Krylov iteration is deliberately
// sequential: its global inner products need a reduction every iteration and
// do not fit a per-step stage DAG, so the compiled islands path covers only
// the smoother (NewSmootherProgram, registered in the solver catalog) while
// this loop stays the bit-identity reference. The former hand-rolled
// scheduler-parallel vector machinery was removed with that migration.
type Solver struct {
	opts   Options
	domain grid.Size
	apply  Operator
	whole  grid.Region
	// workspace vectors
	r, ar   *grid.Field
	ps, aps []*grid.Field
}

// NewSolver allocates a GCR(k) solver for the operator on the domain.
func NewSolver(domain grid.Size, apply Operator, opts Options) *Solver {
	opts.defaults()
	s := &Solver{opts: opts, domain: domain, apply: apply, whole: grid.WholeRegion(domain)}
	s.r = grid.NewField("gcr.r", domain)
	s.ar = grid.NewField("gcr.Ar", domain)
	for i := 0; i < opts.K; i++ {
		s.ps = append(s.ps, grid.NewField(fmt.Sprintf("gcr.p%d", i), domain))
		s.aps = append(s.aps, grid.NewField(fmt.Sprintf("gcr.Ap%d", i), domain))
	}
	return s
}

// dot computes <a,b> over the whole domain in flat order.
func (s *Solver) dot(a, b *grid.Field) float64 {
	var sum float64
	for n := range a.Data {
		sum += a.Data[n] * b.Data[n]
	}
	return sum
}

// axpy computes y += alpha*x.
func (s *Solver) axpy(alpha float64, x, y *grid.Field) {
	for n := range y.Data {
		y.Data[n] += alpha * x.Data[n]
	}
}

// applyOp runs the operator over the whole domain.
func (s *Solver) applyOp(dst, src *grid.Field) {
	s.apply(dst, src, s.whole)
}

// precondition sets dst ~= A^-1 src via PrecondSweeps damped-Jacobi sweeps
// from a zero initial iterate — the same relaxation NewSmootherProgram
// compiles, applied here through the solver's (possibly variable-coefficient)
// operator.
func (s *Solver) precondition(dst, src *grid.Field) {
	for n := range dst.Data {
		dst.Data[n] = Omega / 6 * src.Data[n]
	}
	for sweep := 1; sweep < s.opts.PrecondSweeps; sweep++ {
		s.applyOp(s.ar, dst) // s.ar is free scratch here
		for n := range dst.Data {
			dst.Data[n] += Omega / 6 * (src.Data[n] - s.ar.Data[n])
		}
	}
}

// Solve runs GCR(k): x is the initial guess on entry and the solution on
// return; b is the right-hand side.
func (s *Solver) Solve(x, b *grid.Field) (*Result, error) {
	if x.Size != s.domain || b.Size != s.domain {
		return nil, fmt.Errorf("gcr: field sizes must match the solver domain %v", s.domain)
	}
	normB := math.Sqrt(s.dot(b, b))
	if normB == 0 {
		x.Fill(0)
		return &Result{Converged: true}, nil
	}

	// r = b - A x
	s.applyOp(s.ar, x)
	s.r.CopyFrom(b)
	s.axpy(-1, s.ar, s.r)

	res := &Result{}
	for res.Iterations < s.opts.MaxIter {
		res.Residual = math.Sqrt(s.dot(s.r, s.r)) / normB
		if res.Residual <= s.opts.Tol {
			res.Converged = true
			return res, nil
		}
		slot := res.Iterations % s.opts.K
		p, ap := s.ps[slot], s.aps[slot]
		// New direction: the (preconditioned) residual, orthogonalized
		// (in A^T A) against the stored directions.
		if s.opts.PrecondSweeps > 0 {
			s.precondition(p, s.r)
		} else {
			p.CopyFrom(s.r)
		}
		s.applyOp(ap, p)
		for j := 0; j < s.opts.K; j++ {
			if j == slot {
				continue
			}
			if res.Iterations < s.opts.K && j >= res.Iterations {
				continue // slot never filled yet
			}
			apj := s.aps[j]
			den := s.dot(apj, apj)
			if den == 0 {
				continue
			}
			beta := -s.dot(ap, apj) / den
			s.axpy(beta, s.ps[j], p)
			s.axpy(beta, apj, ap)
		}
		den := s.dot(ap, ap)
		if den == 0 {
			return res, fmt.Errorf("gcr: breakdown (A·p = 0) at iteration %d", res.Iterations)
		}
		alpha := s.dot(s.r, ap) / den
		s.axpy(alpha, p, x)
		s.axpy(-alpha, ap, s.r)
		res.Iterations++
	}
	res.Residual = math.Sqrt(s.dot(s.r, s.r)) / normB
	res.Converged = res.Residual <= s.opts.Tol
	return res, nil
}
