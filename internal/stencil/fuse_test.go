package stencil

import (
	"fmt"
	"math/rand"
	"testing"

	"islands/internal/grid"
)

// siblingProgram builds: a(in), b(in) independent siblings, then c(a,b).
func siblingProgram(t *testing.T) *Program {
	t.Helper()
	p := &Program{
		Name:       "siblings",
		StepInputs: []string{"in"},
		Output:     "c",
		Stages: []Stage{
			{Name: "a", Inputs: []Input{{From: "in", Offsets: []Offset{{0, 0, 0}, {1, 0, 0}}}}, Flops: 2},
			{Name: "b", Inputs: []Input{{From: "in", Offsets: []Offset{{0, 0, 0}, {0, -2, 0}}}}, Flops: 3},
			{Name: "c", Inputs: []Input{
				{From: "a", Offsets: []Offset{{0, 0, 0}}},
				{From: "b", Offsets: []Offset{{-1, 0, 0}, {0, 0, 0}}},
			}, Flops: 4},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanFusionChainIsSingletons(t *testing.T) {
	p := &Fig1Program().Program // A -> B -> C, a pure dependency chain
	fp, err := PlanFusion(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fp.Groups) != 3 {
		t.Fatalf("chain program fused into %d groups, want 3 singletons", len(fp.Groups))
	}
	if !fp.DependsOn(2, 0) {
		t.Fatal("C must transitively depend on A")
	}
	if fp.DependsOn(0, 2) {
		t.Fatal("A must not depend on C")
	}
}

func TestPlanFusionSiblings(t *testing.T) {
	fp, err := PlanFusion(siblingProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fp.Groups) != 2 {
		t.Fatalf("sibling program fused into %d groups, want 2", len(fp.Groups))
	}
	g := fp.Groups[0]
	if len(g.Stages) != 2 || g.Stages[0] != 0 || g.Stages[1] != 1 {
		t.Fatalf("first group = %v, want [0 1]", g.Stages)
	}
	// Merged extent: a reads +1 in i, b reads -2 in j.
	want := Extent{IHi: 1, JLo: 2}
	if g.Ext != want {
		t.Fatalf("merged extent = %+v, want %+v", g.Ext, want)
	}
	if g.Flops != 5 {
		t.Fatalf("merged flops = %d, want 5", g.Flops)
	}
	if fp.GroupOf(0) != 0 || fp.GroupOf(2) != 1 {
		t.Fatalf("GroupOf misassigns stages: %d %d", fp.GroupOf(0), fp.GroupOf(2))
	}
	// c reads both members at merged (maximum) extents, deduplicated.
	ins := fp.GroupInputs(1)
	if len(ins) != 2 {
		t.Fatalf("group 1 inputs = %v, want a and b", ins)
	}
	if ins["b"] != (Extent{ILo: 1}) {
		t.Fatalf("input b extent = %+v, want ILo=1", ins["b"])
	}
}

func TestSingletonFusion(t *testing.T) {
	p := siblingProgram(t)
	fp := SingletonFusion(p)
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fp.Groups) != len(p.Stages) {
		t.Fatalf("singleton plan has %d groups for %d stages", len(fp.Groups), len(p.Stages))
	}
	// The dependency relation must match the fused planner's.
	if !fp.DependsOn(2, 0) || fp.DependsOn(1, 0) {
		t.Fatal("singleton plan computes wrong dependencies")
	}
}

// TestPlanFusionNeverGroupsDependents is the planner property test: over
// randomized program DAGs, no fused group may contain a pair of stages
// connected by any (direct or transitive) dependency path, and the groups
// must partition the stages in order.
func TestPlanFusionNeverGroupsDependents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		p := &Program{Name: "rand", StepInputs: []string{"in"}}
		for s := 0; s < n; s++ {
			st := Stage{Name: fmt.Sprintf("s%d", s), Flops: 1 + rng.Intn(5)}
			// Read a random subset of earlier producers (possibly none
			// beyond the step input).
			for e := 0; e < s; e++ {
				if rng.Intn(3) == 0 {
					st.Inputs = append(st.Inputs, Input{
						From:    fmt.Sprintf("s%d", e),
						Offsets: []Offset{{rng.Intn(3) - 1, rng.Intn(3) - 1, 0}},
					})
				}
			}
			if len(st.Inputs) == 0 {
				st.Inputs = []Input{{From: "in", Offsets: []Offset{{0, 0, 0}}}}
			}
			p.Stages = append(p.Stages, st)
		}
		p.Output = p.Stages[n-1].Name
		fp, err := PlanFusion(p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := fp.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Independent reachability check against the planner's relation.
		reach := make([][]bool, n)
		for s := range p.Stages {
			reach[s] = make([]bool, n)
			for _, in := range p.Stages[s].Inputs {
				if pi := p.StageIndex(in.From); pi >= 0 {
					reach[s][pi] = true
					for q := 0; q < n; q++ {
						if reach[pi][q] {
							reach[s][q] = true
						}
					}
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if fp.DependsOn(a, b) != reach[a][b] {
					t.Fatalf("trial %d: DependsOn(%d,%d)=%v, reachability says %v",
						trial, a, b, fp.DependsOn(a, b), reach[a][b])
				}
			}
		}
		for gi, g := range fp.Groups {
			for _, a := range g.Stages {
				for _, b := range g.Stages {
					if a != b && reach[b][a] {
						t.Fatalf("trial %d: group %d holds dependent stages %d -> %d", trial, gi, a, b)
					}
				}
			}
		}
	}
}

func TestSubtractTilesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	count := func(rs []grid.Region) int {
		c := 0
		for _, r := range rs {
			c += r.Cells()
		}
		return c
	}
	for trial := 0; trial < 200; trial++ {
		r := grid.Region{
			I0: rng.Intn(4), J0: rng.Intn(4), K0: rng.Intn(4),
		}
		r.I1 = r.I0 + 1 + rng.Intn(6)
		r.J1 = r.J0 + 1 + rng.Intn(6)
		r.K1 = r.K0 + 1 + rng.Intn(6)
		inner := grid.Region{
			I0: r.I0 + rng.Intn(r.I1-r.I0+1), J0: r.J0 + rng.Intn(r.J1-r.J0+1), K0: r.K0 + rng.Intn(r.K1-r.K0+1),
		}
		inner.I1 = inner.I0 + rng.Intn(r.I1-inner.I0+1)
		inner.J1 = inner.J0 + rng.Intn(r.J1-inner.J0+1)
		inner.K1 = inner.K0 + rng.Intn(r.K1-inner.K0+1)
		if inner.Empty() {
			inner = grid.Region{}
		}
		pieces := Subtract(r, inner)
		if got, want := count(pieces), r.Cells()-inner.Cells(); got != want {
			t.Fatalf("trial %d: Subtract(%v, %v) covers %d cells, want %d", trial, r, inner, got, want)
		}
		// Disjointness and containment, cell by cell.
		seen := make(map[[3]int]bool)
		for _, pc := range pieces {
			for i := pc.I0; i < pc.I1; i++ {
				for j := pc.J0; j < pc.J1; j++ {
					for k := pc.K0; k < pc.K1; k++ {
						key := [3]int{i, j, k}
						if seen[key] {
							t.Fatalf("trial %d: cell %v covered twice", trial, key)
						}
						seen[key] = true
						if !r.Contains(i, j, k) || inner.Contains(i, j, k) {
							t.Fatalf("trial %d: cell %v outside r minus inner", trial, key)
						}
					}
				}
			}
		}
	}
}

// splitSibling builds a KernelProgram of two pointwise split-path siblings
// (x = 2*in, y = 3*in) and a combining stage z = x + y without a split form.
func splitSibling(t *testing.T) *KernelProgram {
	t.Helper()
	point := func(name string, scale float64) KernelStage {
		k := func(env *Env, r grid.Region) {
			in, out := env.Field("in").Data, env.Field(name).Data
			ForEachRow(env.Domain, r, func(_, _, base int) {
				for n := base; n < base+(r.K1-r.K0); n++ {
					out[n] = scale * in[n]
				}
			})
		}
		return KernelStage{
			Stage:  Stage{Name: name, Inputs: []Input{{From: "in", Offsets: []Offset{{0, 0, 0}}}}, Flops: 1},
			Kernel: k, Fast: k, Slow: k,
		}
	}
	zs := KernelStage{
		Stage: Stage{Name: "z", Inputs: []Input{
			{From: "x", Offsets: []Offset{{0, 0, 0}}},
			{From: "y", Offsets: []Offset{{0, 0, 0}}},
		}, Flops: 1},
		Kernel: func(env *Env, r grid.Region) {
			x, y, out := env.Field("x"), env.Field("y"), env.Field("z")
			ForEach(r, func(i, j, k int) {
				out.Set(i, j, k, x.At(i, j, k)+y.At(i, j, k))
			})
		},
	}
	kp, err := BuildProgram("split-sib", []string{"in"}, "z", []KernelStage{point("x", 2), point("y", 3), zs})
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestCompileGroupsMatchesFusedKernels(t *testing.T) {
	kp := splitSibling(t)
	fusedRan := false
	err := kp.RegisterFused(FusedKernel{
		Stages: []string{"x", "y"},
		Fast: func(env *Env, r grid.Region) {
			fusedRan = true
			in := env.Field("in").Data
			x, y := env.Field("x").Data, env.Field("y").Data
			ForEachRow(env.Domain, r, func(_, _, base int) {
				for n := base; n < base+(r.K1-r.K0); n++ {
					v := in[n]
					x[n] = 2 * v
					y[n] = 3 * v
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(fp.Groups))
	}
	groups, err := fp.CompileGroups(kp)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Fast == nil || len(groups[0].FastMembers) != 2 || len(groups[0].Generic) != 0 {
		t.Fatalf("group 0 exec = %+v, want fused fast with both members", groups[0])
	}
	if groups[1].Fast != nil || len(groups[1].Generic) != 1 || groups[1].Generic[0] != 2 {
		t.Fatalf("group 1 exec = %+v, want generic-only member z", groups[1])
	}

	domain := grid.Sz(4, 3, 5)
	in := grid.NewField("in", domain)
	for n := range in.Data {
		in.Data[n] = float64(n) * 0.25
	}
	env, err := NewEnv(&kp.Program, domain, map[string]*grid.Field{"in": in})
	if err != nil {
		t.Fatal(err)
	}
	r := grid.WholeRegion(domain)
	groups[0].Fast(env, r)
	if !fusedRan {
		t.Fatal("registered fused kernel was not invoked")
	}
	for n, v := range in.Data {
		if env.Field("x").Data[n] != 2*v || env.Field("y").Data[n] != 3*v {
			t.Fatalf("fused group output wrong at %d", n)
		}
	}
}

func TestCompileGroupsFallsBackToMemberFastPaths(t *testing.T) {
	// No registration: the group kernel chains the members' own fast paths.
	kp := splitSibling(t)
	fp, err := PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := fp.CompileGroups(kp)
	if err != nil {
		t.Fatal(err)
	}
	if groups[0].Fast == nil || len(groups[0].FastMembers) != 2 {
		t.Fatalf("group 0 should fall back to member fast paths: %+v", groups[0])
	}
	domain := grid.Sz(3, 2, 4)
	in := grid.NewField("in", domain)
	for n := range in.Data {
		in.Data[n] = float64(n)
	}
	env, _ := NewEnv(&kp.Program, domain, map[string]*grid.Field{"in": in})
	groups[0].Fast(env, grid.WholeRegion(domain))
	for n, v := range in.Data {
		if env.Field("x").Data[n] != 2*v || env.Field("y").Data[n] != 3*v {
			t.Fatalf("fallback group output wrong at %d", n)
		}
	}
}

func TestRegisterFusedValidation(t *testing.T) {
	kp := splitSibling(t)
	nop := func(env *Env, r grid.Region) {}
	cases := []struct {
		name string
		fk   FusedKernel
	}{
		{"no stage", FusedKernel{Fast: nop}},
		{"nil kernel", FusedKernel{Stages: []string{"x", "y"}}},
		{"unknown stage", FusedKernel{Stages: []string{"x", "nope"}, Fast: nop}},
		{"no split form", FusedKernel{Stages: []string{"x", "z"}, Fast: nop}},
	}
	for _, tc := range cases {
		if err := kp.RegisterFused(tc.fk); err == nil {
			t.Errorf("%s: RegisterFused accepted invalid registration", tc.name)
		}
	}
	// Dependent members: y2 reads x2.
	dep, err := BuildProgram("dep", []string{"in"}, "y2", []KernelStage{
		{Stage: Stage{Name: "x2", Inputs: []Input{{From: "in", Offsets: []Offset{{0, 0, 0}}}}, Flops: 1},
			Kernel: nop, Fast: nop, Slow: nop},
		{Stage: Stage{Name: "y2", Inputs: []Input{{From: "x2", Offsets: []Offset{{0, 0, 0}}}}, Flops: 1},
			Kernel: nop, Fast: nop, Slow: nop},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.RegisterFused(FusedKernel{Stages: []string{"x2", "y2"}, Fast: nop}); err == nil {
		t.Error("RegisterFused accepted dependent members")
	}
}

// TestCompileGroupsPrefersASingleStageRegistration: a registration naming one
// stage is that stage's fast path as a compiled group runs it — the group's
// Fast is the registered kernel itself, not the stage's own — and a group is
// row-capable exactly when every kernel it chains is.
func TestCompileGroupsPrefersASingleStageRegistration(t *testing.T) {
	kp := splitSibling(t)
	var ran []string
	mark := func(tag string) Kernel {
		return func(*Env, grid.Region) { ran = append(ran, tag) }
	}
	kp.FastKernels[0], kp.FastKernels[1] = mark("x/fast"), mark("y/fast")
	if err := kp.RegisterFused(FusedKernel{Stages: []string{"x"}, Fast: mark("x/registered"), Rows: true}); err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(3, 2, 4)
	env, err := NewEnv(&kp.Program, domain, map[string]*grid.Field{"in": grid.NewField("in", domain)})
	if err != nil {
		t.Fatal(err)
	}
	groups, err := SingletonFusion(&kp.Program).CompileGroups(kp)
	if err != nil {
		t.Fatal(err)
	}
	groups[0].Fast(env, grid.WholeRegion(domain))
	groups[1].Fast(env, grid.WholeRegion(domain))
	if got := fmt.Sprint(ran); got != "[x/registered y/fast]" {
		t.Fatalf("singleton groups ran %s, want the registration for x and y's own fast path", got)
	}
	if !groups[0].Rows || groups[1].Rows {
		t.Fatalf("singleton groups row-capable = %v, %v; want true (registered so), false (y's stage is not)", groups[0].Rows, groups[1].Rows)
	}

	// Fused, x's registration and y's own fast path share a group: it is
	// row-capable only once y's stage is too.
	fp, err := PlanFusion(&kp.Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, yRows := range []bool{false, true} {
		kp.FastRows[1] = yRows
		groups, err := fp.CompileGroups(kp)
		if err != nil {
			t.Fatal(err)
		}
		ran = nil
		groups[0].Fast(env, grid.WholeRegion(domain))
		if got := fmt.Sprint(ran); got != "[x/registered y/fast]" {
			t.Fatalf("fused group ran %s", got)
		}
		if groups[0].Rows != yRows {
			t.Fatalf("group of a row-capable registration and y (rows=%v) reports Rows=%v", yRows, groups[0].Rows)
		}
	}
}
