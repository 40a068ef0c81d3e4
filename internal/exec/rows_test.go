package exec

import (
	"fmt"
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestRowCapableKernelsGetWholeRows walks compiled MPDATA schedules with every
// kernel replaced by a probe: an item of a row-capable kernel must never run
// on an environment pinned along k, and its region must span the domain's
// whole k range — the faces are the kernel's, not the schedule's — while the
// kernels that are not row-capable keep today's k-pinned pieces. Capability is
// data on the registration (the MPDATA group kernels) or on the stage (set
// here on the stages a fusion-free program leaves to their own fast paths),
// never the CPU probe: the walk is the same under either fused-kernel body.
func TestRowCapableKernelsGetWholeRows(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	domain := grid.Sz(37, 22, 7)
	type counts struct{ rows, pinned int }
	probe := func(t *testing.T, rowCapable bool, c *counts) stencil.Kernel {
		return func(env *stencil.Env, r grid.Region) {
			switch {
			case !rowCapable:
				if env.KPinned() {
					c.pinned++
				}
			case env.KPinned():
				t.Errorf("row-capable kernel item on a k-pinned environment, region %v", r)
			case r.K0 != 0 || r.K1 != domain.NK:
				t.Errorf("row-capable kernel item over %v: k is cut", r)
			default:
				c.rows++
			}
		}
	}
	programs := map[string]func(t *testing.T, c *counts) *stencil.KernelProgram{
		// MPDATA as registered: every group kernel is row-capable, the
		// stages' own fast paths (leftover strips, wrap bands) are not.
		"registered": func(t *testing.T, c *counts) *stencil.KernelProgram {
			kp := mpdata.NewProgram()
			for s := range kp.FastKernels {
				kp.FastKernels[s] = probe(t, false, c)
			}
			for fi := range kp.Fused {
				if !kp.Fused[fi].Rows {
					t.Fatalf("MPDATA group kernel %v is not row-capable", kp.Fused[fi].Stages)
				}
				kp.Fused[fi].Fast = probe(t, true, c)
			}
			return kp
		},
		// No registrations: the members of two fused groups declare their
		// own fast paths row-capable, so those groups — a chain of
		// row-capable members — are, fused or one stage each.
		"stages": func(t *testing.T, c *counts) *stencil.KernelProgram {
			kp := mpdata.NewProgram()
			kp.Fused = nil
			kp.FastRows = make([]bool, len(kp.Stages))
			for _, name := range []string{"psiMax", "psiMin", "v1", "v2", "v3", "g1", "g2", "g3"} {
				kp.FastRows[kp.StageIndex(name)] = true
			}
			for s := range kp.FastKernels {
				kp.FastKernels[s] = probe(t, kp.FastRows[s], c)
			}
			return kp
		},
	}
	for name, build := range programs {
		for _, cfg := range []Config{
			{Strategy: Original},
			{Strategy: Plus31D},
			{Strategy: IslandsOfCores},
			{Strategy: IslandsOfCores, Variant: decomp.VariantB, KSteps: 2},
			{Strategy: IslandsOfCores, CoreIslands: true},
			{Strategy: IslandsOfCores, DisableFusion: true},
		} {
			for _, bc := range []stencil.Boundary{stencil.Clamp, stencil.Periodic} {
				cfg.Machine, cfg.Boundary, cfg.BlockI, cfg.Steps = m, bc, 5, max(cfg.KSteps, 1)
				t.Run(fmt.Sprintf("%s/%v/k%d/nofuse=%v/bc%d", name, cfg.Strategy, cfg.KSteps, cfg.DisableFusion, bc), func(t *testing.T) {
					var c counts
					state := mpdata.NewState(domain)
					r, err := NewRunner(cfg, build(t, &c), state.InputMap(), mpdata.InPsi)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					for _, team := range r.schedule.items {
						for _, items := range team {
							for i := range items {
								if it := &items[i]; it.kind == kernelItem {
									it.kern(it.env, it.reg)
								}
							}
						}
					}
					if c.rows == 0 {
						t.Error("no row-capable kernel item in the schedule: the case checks nothing")
					}
					if name == "stages" && c.pinned == 0 {
						t.Error("no k-pinned item of a kernel that is not row-capable: the probe cannot tell the two apart")
					}
				})
			}
		}
	}
}
