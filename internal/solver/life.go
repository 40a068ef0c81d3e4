package solver

import (
	"islands/internal/grid"
	"islands/internal/stencil"
)

// Conway's game of life — the boolean cellular automaton of the catalog.
// Cells hold exactly 0.0 or 1.0, so float arithmetic is exact and the
// bit-identity contract degenerates to logical equality, which makes life
// the sharpest cross-strategy smoke test: any halo or trapezoid bug flips a
// cell. Each k slice evolves as an independent 2D board (Moore
// neighbourhood in i,j), so any NK is accepted and the k axis carries a
// stack of boards instead of packed components.

const lifeIn = "cells"

func init() {
	var moore []stencil.Offset
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			moore = append(moore, stencil.Offset{DI: di, DJ: dj})
		}
	}
	inputs := []stencil.Input{{From: lifeIn, Offsets: moore}}
	slow := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lifeIn), env.Field("next")
		stencil.ForEach(r, func(i, j, k int) {
			out.Set(i, j, k, lifeRuleAt(env, src, i, j, k))
		})
	}
	// Each board is read in its own k slice only, the same way at every
	// cell, so the fast path visits by runs (whole boards at once).
	fast := func(env *stencil.Env, r grid.Region) {
		src, out := env.Field(lifeIn).Data, env.Field("next").Data
		var d [8]int
		n := 0
		for di := -1; di <= 1; di++ {
			for dj := -1; dj <= 1; dj++ {
				if di != 0 || dj != 0 {
					d[n] = env.Step(0, di) + env.Step(1, dj)
					n++
				}
			}
		}
		stencil.ForEachRun(env.Domain, r, func(n0, n1 int) {
			for n := n0; n < n1; n++ {
				live := 0
				for _, dn := range d {
					if src[n+dn] != 0 {
						live++
					}
				}
				out[n] = lifeRule(src[n], live)
			}
		})
	}
	stages := []stencil.KernelStage{{
		Stage:  stencil.Stage{Name: "next", Inputs: inputs, Flops: 10},
		Kernel: stencil.SplitKernel(inputs, fast, slow), Fast: fast, Slow: slow, Rows: true,
	}}
	newProgram := func(Options) (*stencil.KernelProgram, error) {
		kp, err := stencil.BuildProgram("game-of-life", []string{lifeIn}, "next", stages)
		if err != nil {
			return nil, err
		}
		kp.Program.Feedback = lifeIn
		return kp, nil
	}
	Register(&Entry{
		Name:        "life",
		Description: "Conway's game of life (boolean CA, one independent board per k slice)",
		NewProgram:  newProgram,
		NewState: func(domain grid.Size) (*State, error) {
			return newState(domain, lifeIn, lifeIn), nil
		},
		SetProblem: func(st *State) { lifeSetProblem(st.Output()) },
		Reference:  lifeReference,
	})
}

// lifeRule is B3/S23 at one cell of value c with live Moore neighbours: the
// one per-cell function of the stage's fast and slow paths and of the
// reference.
func lifeRule(c float64, live int) float64 {
	if live == 3 || (c != 0 && live == 2) {
		return 1
	}
	return 0
}

// lifeRuleAt is lifeRule at cell (i,j,k) of src, its neighbours read through
// the environment's boundary condition: Clamp replicates edge cells into the
// outside (edges see their own value as the missing neighbours), Periodic is
// the usual torus.
func lifeRuleAt(env *stencil.Env, src *grid.Field, i, j, k int) float64 {
	var live int
	for di := -1; di <= 1; di++ {
		for dj := -1; dj <= 1; dj++ {
			if di == 0 && dj == 0 {
				continue
			}
			if env.AtP(src, i+di, j+dj, k) != 0 {
				live++
			}
		}
	}
	return lifeRule(src.At(i, j, k), live)
}

// lifeSetProblem seeds a deterministic ~40% soup from a cell-coordinate
// hash — reproducible across runs and execution modes without any RNG
// state.
func lifeSetProblem(f *grid.Field) {
	f.FillFunc(func(i, j, k int) float64 {
		h := uint32(i*73856093) ^ uint32(j*19349663) ^ uint32(k*83492791)
		h ^= h >> 13
		h *= 2654435761
		h ^= h >> 16
		if h%5 < 2 {
			return 1
		}
		return 0
	})
}

// lifeReference advances the boards sequentially — an independent loop over
// the rule, not the kernel.
func lifeReference(st *State, steps int, bc stencil.Boundary, _ Options) error {
	f := st.Output()
	next := grid.NewField("life.ref.next", st.Domain)
	env := &stencil.Env{Domain: st.Domain, BC: bc}
	whole := grid.WholeRegion(st.Domain)
	for t := 0; t < steps; t++ {
		stencil.ForEach(whole, func(i, j, k int) {
			next.Set(i, j, k, lifeRuleAt(env, f, i, j, k))
		})
		f.CopyFrom(next)
	}
	return nil
}
