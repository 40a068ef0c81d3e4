package main

import (
	"fmt"
	"time"

	"islands/internal/grid"
	"islands/internal/serve"
	"islands/internal/solver"
	"islands/internal/stencil"
)

// refKey names one distinct problem: everything the expected checksums
// depend on. Strategy, processors and execution mode are deliberately not in
// it — the repo's contract is that they never change a bit of the result.
type refKey struct {
	solver   string
	domain   grid.Size
	steps    int
	boundary stencil.Boundary
}

func keyOf(ns serve.NormSpec) refKey {
	return refKey{ns.Solver, ns.Domain, ns.Steps, ns.Boundary}
}

// sums is the bit-compared part of serve.Checksums.
type sums struct{ sum, min, max float64 }

func sumsOf(c serve.Checksums) sums { return sums{c.Sum, c.Min, c.Max} }

// references holds the expected checksums of every class of a workload and
// the single-threaded rate they were computed at.
type references struct {
	want map[refKey]sums
	// cellSteps and seconds total the sequential reference runs.
	cellSteps float64
	seconds   float64
}

// programOf builds the spec's catalog entry and one-step program.
func programOf(ns serve.NormSpec) (*solver.Entry, *stencil.KernelProgram, error) {
	entry, err := ns.SolverEntry()
	if err != nil {
		return nil, nil, err
	}
	prog, err := entry.NewProgram(ns.SolverOptions())
	return entry, prog, err
}

// computeReferences runs solver.SequentialReference once per distinct
// problem of the class list.
func computeReferences(classes []class) (*references, error) {
	refs := &references{want: make(map[refKey]sums)}
	for _, c := range classes {
		k := keyOf(c.ns)
		if _, done := refs.want[k]; done {
			continue
		}
		entry, prog, err := programOf(c.ns)
		if err != nil {
			return nil, err
		}
		st, err := entry.NewProblemState(c.ns.Domain)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := solver.SequentialReference(prog, st, c.ns.Steps, c.ns.Boundary); err != nil {
			return nil, fmt.Errorf("reference %s: %w", c.name, err)
		}
		refs.seconds += time.Since(t0).Seconds()
		refs.cellSteps += c.cellSteps()
		out := st.Output()
		refs.want[k] = sums{out.Sum(), out.Min(), out.Max()}
	}
	return refs, nil
}

// check reports whether a job's checksums match the reference bit for bit.
func (r *references) check(ns serve.NormSpec, got serve.Checksums) bool {
	want, ok := r.want[keyOf(ns)]
	return ok && want == sumsOf(got)
}
