package solver

import (
	"math"

	"islands/internal/grid"
	"islands/internal/stencil"
)

// Lattice-Boltzmann D2Q9 (collide + stream), the many-field workload of the
// catalog. The executor advances one feedback field, so the nine
// distribution functions pack along the never-partitioned k axis (NK must be
// exactly 9, k = discrete-velocity index q — the component-axis convention
// of docs/SOLVERS.md). The collide stage reads all nine components of a
// column — declared as the (0,0,dk) offset superset, every read in-domain —
// and the stream stage shifts each component by its lattice velocity, which
// is where the per-step (i,j) halo of one cell comes from. Boundary
// semantics follow the executor's conditions: Periodic is the standard
// torus, Clamp replicates edge distributions (a deterministic, bit-testable
// closure rather than a physical wall).

// lbmNQ is the D2Q9 component count (the packed k-extent).
const lbmNQ = 9

// lbmTau is the fixed BGK relaxation time (0.6 keeps the collision
// non-degenerate: tau=1 would overwrite f with its equilibrium).
const lbmTau = 0.6

// D2Q9 lattice velocities and weights, in the conventional order: rest,
// axis-aligned, diagonals.
var (
	lbmCI = [lbmNQ]int{0, 1, 0, -1, 0, 1, -1, -1, 1}
	lbmCJ = [lbmNQ]int{0, 0, 1, 0, -1, 1, 1, -1, -1}
	lbmW  = [lbmNQ]float64{4.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 9, 1.0 / 36, 1.0 / 36, 1.0 / 36, 1.0 / 36}
)

const lbmIn = "f"

func init() {
	columnOffsets := make([]stencil.Offset, 0, 2*lbmNQ-1)
	for dk := -(lbmNQ - 1); dk <= lbmNQ-1; dk++ {
		columnOffsets = append(columnOffsets, stencil.Offset{DK: dk})
	}
	var neighborOffsets []stencil.Offset
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			neighborOffsets = append(neighborOffsets, stencil.Offset{DI: di, DJ: dj})
		}
	}
	collInputs := []stencil.Input{{From: lbmIn, Offsets: columnOffsets}}
	collSlow := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lbmIn), env.Field("coll")
		stencil.ForEach(r, func(i, j, q int) {
			out.Set(i, j, q, lbmCollideAt(src, i, j, q))
		})
	}
	// Column-pointwise and row-capable: every read is an absolute component
	// of the cell's own column, in-domain under any binding, so the moments
	// are taken once per column.
	collFast := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lbmIn).Data, env.Field("coll").Data
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			col := base - r.K0
			f := src[col : col+lbmNQ : col+lbmNQ]
			rho, ux, uy := lbmMoments(f)
			for q := r.K0; q < r.K1; q++ {
				out[col+q] = lbmCollide(q, f[q], rho, ux, uy)
			}
		})
	}
	streamInputs := []stencil.Input{{From: "coll", Offsets: neighborOffsets}}
	streamSlow := func(env *stencil.Env, r grid.Region) {
		coll, out := env.Field("coll"), env.Field("fq")
		stencil.ForEach(r, func(i, j, q int) {
			out.Set(i, j, q, env.AtP(coll, i-lbmCI[q], j-lbmCJ[q], q))
		})
	}
	streamFast := func(env *stencil.Env, r grid.Region) {
		coll, out := env.Field("coll").Data, env.Field("fq").Data
		var d [lbmNQ]int
		for q := range d {
			d[q] = env.Step(0, -lbmCI[q]) + env.Step(1, -lbmCJ[q])
		}
		stencil.ForEachRow(env.Domain, r, func(_, _, base int) {
			col := base - r.K0
			for q := r.K0; q < r.K1; q++ {
				out[col+q] = coll[col+q+d[q]]
			}
		})
	}
	stages := []stencil.KernelStage{
		{
			Stage: stencil.Stage{
				Name:   "coll",
				Inputs: collInputs,
				Flops:  60, // moment sums + equilibrium + BGK relaxation per component
			},
			Kernel: stencil.SplitKernel(collInputs, collFast, collSlow), Fast: collFast, Slow: collSlow, Rows: true,
		},
		{
			Stage:  stencil.Stage{Name: "fq", Inputs: streamInputs, Flops: 1},
			Kernel: stencil.SplitKernel(streamInputs, streamFast, streamSlow), Fast: streamFast, Slow: streamSlow, Rows: true,
		},
	}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("lbm-d2q9", []string{lbmIn}, "fq", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = lbmIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "lbm",
		Description: "lattice-Boltzmann D2Q9 stream+collide (9 distributions packed along k)",
		CheckDomain: requireNK(lbmNQ, "the 9 D2Q9 distributions pack along the k axis"),
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, lbmIn, lbmIn), nil
		},
		SetProblem: func(st *State) { lbmSetProblem(st.Output(), st.Domain) },
		Reference:  lbmReference,
	})
}

// lbmMoments returns the density and velocity of one column's nine
// distributions — the moment sums the collision relaxes toward.
func lbmMoments(f []float64) (rho, ux, uy float64) {
	var jx, jy float64
	for r, v := range f[:lbmNQ] {
		rho += v
		jx += float64(lbmCI[r]) * v
		jy += float64(lbmCJ[r]) * v
	}
	return rho, jx / rho, jy / rho
}

// lbmCollide returns the post-collision value of component q, of value fq,
// in a column of moments rho, ux, uy: BGK relaxation toward the D2Q9
// equilibrium. It is the one per-cell function of the collide stage's fast
// and slow paths and of the reference.
func lbmCollide(q int, fq, rho, ux, uy float64) float64 {
	feq := lbmEquilibrium(q, rho, ux, uy)
	return fq + (feq-fq)/lbmTau
}

// lbmCollideAt is lbmCollide at component q of column (i,j) of f, the
// moments taken from that column. All reads are in-domain (the column is
// never cut by the partitioner), so no boundary resolution is involved.
func lbmCollideAt(f *grid.Field, i, j, q int) float64 {
	n := f.Index(i, j, 0)
	rho, ux, uy := lbmMoments(f.Data[n : n+lbmNQ])
	return lbmCollide(q, f.At(i, j, q), rho, ux, uy)
}

// lbmEquilibrium returns the equilibrium distribution for component q at
// density rho and velocity (ux, uy) — the initial-condition fill and the
// collision's target.
func lbmEquilibrium(q int, rho, ux, uy float64) float64 {
	usq := ux*ux + uy*uy
	cu := float64(lbmCI[q])*ux + float64(lbmCJ[q])*uy
	return lbmW[q] * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*usq)
}

// lbmSetProblem initializes f to the equilibrium of a double shear flow:
// unit density with a smooth sinusoidal velocity perturbation (peak Mach
// 0.05, well inside the incompressible regime).
func lbmSetProblem(f *grid.Field, domain grid.Size) {
	ni, nj := float64(domain.NI), float64(domain.NJ)
	f.FillFunc(func(i, j, q int) float64 {
		ux := 0.05 * math.Sin(2*math.Pi*float64(j)/nj)
		uy := 0.05 * math.Sin(2*math.Pi*float64(i)/ni)
		return lbmEquilibrium(q, 1, ux, uy)
	})
}

// lbmReference advances the packed field sequentially: a full-domain collide
// pass into scratch, then a stream pass — independent of the compiled
// executor, with the identical per-cell float sequence.
func lbmReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	f := st.Output()
	coll := grid.NewField("lbm.ref.coll", st.Domain)
	next := grid.NewField("lbm.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, q int) {
			coll.Set(i, j, q, lbmCollideAt(f, i, j, q))
		})
		stencil.ForEach(whole, func(i, j, q int) {
			next.Set(i, j, q, env.AtP(coll, i-lbmCI[q], j-lbmCJ[q], q))
		})
		f.CopyFrom(next)
	}
	return nil
}
