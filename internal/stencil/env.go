package stencil

import (
	"fmt"

	"islands/internal/grid"
)

// Kernel computes one stage's output over a region, reading producer fields
// from the environment. Kernels must write exactly the cells of r in the
// stage's own output field and read only at the stage's declared offsets —
// tests cross-check declared patterns against actual behaviour.
//
// A Fast kernel may additionally be row-capable (KernelStage.Rows,
// FusedKernel.Rows). Handed an environment that is not pinned along k and a
// region reaching a k face it reads across (k < its own extent's KLo, or
// k >= NK - KHi), such a kernel computes those end cells itself, inside the
// visit of the row they end, resolving their reads through the same
// environment pinned at that k (Env.PinK) — the offsets a k-pinned border
// piece would resolve, so every cell keeps its bits. A schedule compiler then
// cuts a row-capable kernel's region in i and j only (RowPieces): rows stay
// whole, and no piece is a strided column of one-cell rows.
type Kernel func(env *Env, r grid.Region)

// KernelStage pairs a Stage description with its executable kernel. Stages
// may additionally expose the two halves of an interior/border split kernel
// (Fast runs where every read at the stage's declared offsets stays
// in-domain, Slow anywhere): a schedule compiler can then perform the
// InteriorSplit once at plan time instead of on every kernel invocation.
type KernelStage struct {
	Stage
	Kernel Kernel
	// Fast and Slow, when both non-nil, are the pre-split paths of Kernel:
	// Kernel(env, r) must be equivalent to Fast on the interior of r (per
	// InteriorSplit with the stage's input extent) and Slow on the border
	// shell. Nil means the stage has no split form.
	Fast, Slow Kernel
	// Rows marks Fast as row-capable (see Kernel).
	Rows bool
}

// KernelProgram is a Program whose stages carry executable kernels.
type KernelProgram struct {
	Program
	Kernels []Kernel // parallel to Program.Stages
	// FastKernels/SlowKernels hold the pre-split kernel paths (nil entries
	// for stages without a split form); parallel to Program.Stages.
	FastKernels []Kernel
	SlowKernels []Kernel
	// FastRows marks the row-capable entries of FastKernels (nil = none).
	FastRows []bool
	// Fused lists hand-written group kernels (see FusedKernel). The fusion
	// planner applies a registration whenever all its member stages land in
	// the same fused group; otherwise the members run their individual fast
	// paths, so registrations are an optimization, never a requirement.
	Fused []FusedKernel
}

// FusedKernel is a hand-written kernel computing several mutually
// independent sibling stages in one row sweep, sharing the loads of their
// common inputs. Fast must be equivalent to running every member's fast
// kernel over the region, and — like the per-stage fast paths — must resolve
// offsets through Env.Step/OffsetStride so it stays exact on pinned border
// pieces. A registration naming a single stage is that stage's fast path as
// the compiled schedule runs it; the stage's own Fast/Slow/Kernel, which the
// unfused strips and a sequential reference run, are left alone.
type FusedKernel struct {
	// Stages names the member stages, in program order.
	Stages []string
	Fast   Kernel
	// Rows marks Fast as row-capable (see Kernel).
	Rows bool
}

// SplitPaths returns stage s's pre-split kernel paths, or ok=false when the
// stage only has the combined kernel.
func (p *KernelProgram) SplitPaths(s int) (fast, slow Kernel, ok bool) {
	if p.FastKernels == nil || p.FastKernels[s] == nil || p.SlowKernels[s] == nil {
		return nil, nil, false
	}
	return p.FastKernels[s], p.SlowKernels[s], true
}

// RowCapable reports whether stage s's fast path is row-capable.
func (p *KernelProgram) RowCapable(s int) bool {
	return p.FastRows != nil && p.FastRows[s]
}

// BuildProgram assembles a KernelProgram from kernel stages.
func BuildProgram(name string, stepInputs []string, output string, stages []KernelStage) (*KernelProgram, error) {
	kp := &KernelProgram{
		Program: Program{Name: name, StepInputs: stepInputs, Output: output},
	}
	for _, ks := range stages {
		kp.Stages = append(kp.Stages, ks.Stage)
		kp.Kernels = append(kp.Kernels, ks.Kernel)
		kp.FastKernels = append(kp.FastKernels, ks.Fast)
		kp.SlowKernels = append(kp.SlowKernels, ks.Slow)
		kp.FastRows = append(kp.FastRows, ks.Rows)
	}
	if err := kp.Validate(); err != nil {
		return nil, err
	}
	for i, k := range kp.Kernels {
		if k == nil {
			return nil, fmt.Errorf("stencil: stage %q has no kernel", kp.Stages[i].Name)
		}
		if (kp.FastKernels[i] == nil) != (kp.SlowKernels[i] == nil) {
			return nil, fmt.Errorf("stencil: stage %q has only one of Fast/Slow", kp.Stages[i].Name)
		}
	}
	return kp, nil
}

// RegisterFused validates and registers a hand-written group kernel: every
// member must exist, carry a split kernel form (the fused kernel replaces
// the members' fast paths), and no member may read another member's output.
func (p *KernelProgram) RegisterFused(fk FusedKernel) error {
	if len(fk.Stages) == 0 {
		return fmt.Errorf("stencil: fused kernel names no stage")
	}
	if fk.Fast == nil {
		return fmt.Errorf("stencil: fused kernel %v has no kernel", fk.Stages)
	}
	for _, name := range fk.Stages {
		s := p.StageIndex(name)
		if s < 0 {
			return fmt.Errorf("stencil: fused kernel names unknown stage %q", name)
		}
		if _, _, ok := p.SplitPaths(s); !ok {
			return fmt.Errorf("stencil: fused kernel member %q has no split kernel form", name)
		}
		for _, other := range fk.Stages {
			if other != name && p.Stages[s].Reads(other) != nil {
				return fmt.Errorf("stencil: fused kernel members %q and %q are dependent", name, other)
			}
		}
	}
	p.Fused = append(p.Fused, fk)
	return nil
}

// Boundary selects how reads outside the domain are resolved.
type Boundary int

const (
	// Periodic wraps indices around the domain (torus), convenient for
	// numerical validation against exact translated solutions.
	Periodic Boundary = iota
	// Clamp replicates the boundary cell (zero-gradient), matching the
	// physical open boundaries of production MPDATA grids; the paper's
	// redundant-element accounting (Table 2) assumes this: islands at
	// domain edges have no halo beyond the boundary.
	Clamp
)

// Env holds the named fields a program executes against: the step inputs and
// one full-domain output field per stage. Indexing helpers implement the
// selected boundary condition (Periodic by default).
//
// An Env may additionally be bound to a border piece (BindPiece): along each
// pinned dimension the piece sits at one fixed coordinate, so the
// boundary-condition resolution of any read offset is uniform over the piece
// and Step/OffsetStride fold it into the flat-index displacement. Fast
// kernels that obtain their strides through these methods therefore run
// unmodified — and unchecked — on boundary planes, which is how the compiled
// schedule executes most of the border shell without the per-cell AtP path.
type Env struct {
	Domain grid.Size
	BC     Boundary
	fields map[string]*grid.Field
	// pinned/pin describe the border binding (all-false = unbound).
	pinned [3]bool
	pin    [3]int
}

// PinK returns e additionally pinned at coordinate k of the k dimension,
// keeping any binding along i and j: the environment a row-capable kernel
// resolves a row's end cell through. It is returned by value, so a kernel
// pins without allocating.
func (e *Env) PinK(k int) Env {
	c := *e
	c.pinned[2], c.pin[2] = true, k
	return c
}

// KPinned reports whether e is bound to a piece pinned along k.
func (e *Env) KPinned() bool { return e.pinned[2] }

// BindPiece returns a shallow clone of e bound to the given border piece.
// The clone shares e's fields (and thus observes buffer swaps); only offset
// resolution changes.
func (e *Env) BindPiece(p BorderPiece) *Env {
	c := *e
	c.pinned = p.Pinned
	c.pin = p.Pin
	return &c
}

// Step returns the flat-index displacement of a move of delta cells along
// dim (0=i, 1=j, 2=k), resolving the boundary condition along pinned
// dimensions. On an unbound Env it is delta times the dimension's stride.
func (e *Env) Step(dim, delta int) int {
	var stride, n, at int
	switch dim {
	case 0:
		stride, n, at = e.Domain.NJ*e.Domain.NK, e.Domain.NI, e.pin[0]
	case 1:
		stride, n, at = e.Domain.NK, e.Domain.NJ, e.pin[1]
	default:
		stride, n, at = 1, e.Domain.NK, e.pin[2]
	}
	if delta == 0 || !e.pinned[dim] {
		return delta * stride
	}
	c := at + delta
	if e.BC == Periodic {
		c = Wrap(c, n)
	} else {
		c = ClampIdx(c, n)
	}
	return (c - at) * stride
}

// OffsetStride converts a read offset to a flat-index displacement under the
// environment's border binding (equal to stencil.OffsetStride when unbound).
// Kernels must resolve composite offsets through this (or per-dimension
// Step sums) rather than raw strides, so the same code serves interior and
// pinned border pieces.
func (e *Env) OffsetStride(o Offset) int {
	return e.Step(0, o.DI) + e.Step(1, o.DJ) + e.Step(2, o.DK)
}

// NewEnv creates an execution environment for prog on the given domain,
// binding the provided step-input fields and allocating stage outputs.
func NewEnv(prog *Program, domain grid.Size, inputs map[string]*grid.Field) (*Env, error) {
	return NewEnvIn(nil, prog, domain, inputs)
}

// NewEnvIn is NewEnv with the stage outputs allocated from arena (nil = the
// heap).
func NewEnvIn(arena *grid.Arena, prog *Program, domain grid.Size, inputs map[string]*grid.Field) (*Env, error) {
	env := &Env{Domain: domain, fields: make(map[string]*grid.Field)}
	for _, name := range prog.StepInputs {
		f, ok := inputs[name]
		if !ok {
			return nil, fmt.Errorf("stencil: missing step input %q", name)
		}
		if f.Size != domain {
			return nil, fmt.Errorf("stencil: input %q has size %v, want %v", name, f.Size, domain)
		}
		env.fields[name] = f
	}
	for i := range prog.Stages {
		name := prog.Stages[i].Name
		env.fields[name] = arena.NewField(name, domain)
	}
	return env, nil
}

// Field returns the named field, panicking on unknown names (a programming
// error in a kernel).
func (e *Env) Field(name string) *grid.Field {
	f, ok := e.fields[name]
	if !ok {
		panic(fmt.Sprintf("stencil: unknown field %q", name))
	}
	return f
}

// Wrap returns idx wrapped periodically into [0, n).
func Wrap(idx, n int) int {
	idx %= n
	if idx < 0 {
		idx += n
	}
	return idx
}

// ClampIdx returns idx clamped into [0, n).
func ClampIdx(idx, n int) int {
	if idx < 0 {
		return 0
	}
	if idx >= n {
		return n - 1
	}
	return idx
}

// AtP reads field f at (i,j,k), resolving out-of-domain indices with the
// environment's boundary condition.
func (e *Env) AtP(f *grid.Field, i, j, k int) float64 {
	if e.BC == Periodic {
		if i < 0 || i >= e.Domain.NI {
			i = Wrap(i, e.Domain.NI)
		}
		if j < 0 || j >= e.Domain.NJ {
			j = Wrap(j, e.Domain.NJ)
		}
		if k < 0 || k >= e.Domain.NK {
			k = Wrap(k, e.Domain.NK)
		}
	} else {
		i = ClampIdx(i, e.Domain.NI)
		j = ClampIdx(j, e.Domain.NJ)
		k = ClampIdx(k, e.Domain.NK)
	}
	return f.At(i, j, k)
}
