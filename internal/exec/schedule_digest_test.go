package exec

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/sched"
	"islands/internal/stencil"
	"islands/internal/topology"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/schedule_digests.txt from the schedules this tree compiles")

// recordingProgram returns MPDATA's stage graph with every kernel path
// replaced by a stub that, instead of computing, appends which path of which
// stage it is and how the environment it was handed resolves offsets (the
// Step probes fingerprint a border-piece binding). Walking a compiled
// schedule's kernel items through these stubs therefore spells out what the
// schedule would execute without depending on function identity. Each kernel
// keeps its row capability, which decides how its regions are cut.
func recordingProgram(log *[]string) *stencil.KernelProgram {
	src := mpdata.NewProgram()
	kp := &stencil.KernelProgram{Program: src.Program, FastRows: src.FastRows}
	stub := func(tag string) stencil.Kernel {
		return func(env *stencil.Env, _ grid.Region) {
			var steps []int
			for d := 0; d < 3; d++ {
				for _, delta := range []int{-2, -1, 1, 2} {
					steps = append(steps, env.Step(d, delta))
				}
			}
			*log = append(*log, fmt.Sprintf("%s%v", tag, steps))
		}
	}
	for s := range src.Stages {
		name := src.Stages[s].Name
		kp.Kernels = append(kp.Kernels, stub(name+"/k"))
		var fast, slow stencil.Kernel
		if _, _, ok := src.SplitPaths(s); ok {
			fast, slow = stub(name+"/fast"), stub(name+"/slow")
		}
		kp.FastKernels = append(kp.FastKernels, fast)
		kp.SlowKernels = append(kp.SlowKernels, slow)
	}
	for _, fk := range src.Fused {
		kp.Fused = append(kp.Fused, stencil.FusedKernel{Stages: fk.Stages, Rows: fk.Rows,
			Fast: stub("fused(" + strings.Join(fk.Stages, ",") + ")")})
	}
	return kp
}

// scheduleDigest renders every worker's compiled item sequence plus the
// schedule's phase labels and stats, and returns the
// SHA-256 of the rendering with the item count. Environments are named by
// their index in the runner's flat list, barriers by order of first
// appearance in the (team, worker) walk.
func scheduleDigest(t *testing.T, cfg Config, domain grid.Size) (string, int) {
	t.Helper()
	var log []string
	kp := recordingProgram(&log)
	state := mpdata.NewState(domain)
	inputs := state.InputMap()
	r, err := NewRunner(cfg, kp, inputs, mpdata.InPsi)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	defer r.Close()

	fieldName := map[*grid.Field]string{inputs[mpdata.InPsi]: "shared"}
	envOf := map[*grid.Field]int{}
	for e, env := range r.haloEnvs {
		out := env.Field(kp.Output)
		fieldName[out] = fmt.Sprintf("e%d.out", e)
		envOf[out] = e
		if fb := env.Field(mpdata.InPsi); fieldName[fb] == "" {
			fieldName[fb] = fmt.Sprintf("e%d.fb", e)
		}
	}
	barName := map[*sched.Barrier]int{}
	bar := func(b *sched.Barrier) string {
		if b == nil {
			return "-"
		}
		if _, ok := barName[b]; !ok {
			barName[b] = len(barName)
		}
		return fmt.Sprint(barName[b])
	}

	var buf bytes.Buffer
	items := 0
	render := func(title string, prog [][][]schedItem) {
		for ti, team := range prog {
			for w, its := range team {
				fmt.Fprintf(&buf, "%s team %d worker %d\n", title, ti, w)
				for i := range its {
					it := &its[i]
					items++
					label := r.schedule.phases[it.phase].label
					switch it.kind {
					case kernelItem:
						e, ok := envOf[it.env.Field(kp.Output)]
						if !ok {
							t.Fatalf("kernel item runs on an environment outside the runner's list")
						}
						log = log[:0]
						it.kern(it.env, it.reg)
						fmt.Fprintf(&buf, "K %s %v e%d %s\n", label, it.reg, e, strings.Join(log, " "))
					case copyItem:
						fmt.Fprintf(&buf, "C %s %v %s<-%s\n", label, it.reg, fieldName[it.dst], fieldName[it.src])
					case barrierItem:
						fmt.Fprintf(&buf, "B %s bar%s\n", label, bar(it.bar))
					case swapItem:
						fmt.Fprintf(&buf, "S %s bar%s %s<->%s fused=%v\n", label, bar(it.bar),
							fieldName[it.dst], fieldName[it.src], it.do != nil)
					}
				}
			}
		}
	}
	render("main", r.schedule.items)
	st := r.schedule.Stats()
	fmt.Fprintf(&buf, "phases %s\n", strings.Join(r.schedule.PhaseLabels(), " | "))
	// The literal "rem=0" keeps the digests of schedules recorded before the
	// remainder field went.
	fmt.Fprintf(&buf, "stats %s | swaps=%d barriers=%d ksteps=%d rem=0\n",
		st, st.SwapItems, st.Barriers, st.KSteps)
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), items
}

// TestScheduleDigests pins the compiled schedules structurally: the golden
// file holds one digest per configuration of the strategy x boundary x k x
// fusion matrix on an odd-shaped multi-block grid, generated
// with -update. A refactor of the schedule compiler must leave it
// byte-identical — "same schedule" item for item, not only same output.
func TestScheduleDigests(t *testing.T) {
	m2, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	m4, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	odd := grid.Sz(37, 22, 7)
	strategies := []struct {
		name   string
		domain grid.Size
		cfg    Config
	}{
		{"original", odd, Config{Machine: m2, Strategy: Original}},
		{"plus31d", odd, Config{Machine: m2, Strategy: Plus31D}},
		{"islands-a", odd, Config{Machine: m2, Strategy: IslandsOfCores}},
		{"islands-b", odd, Config{Machine: m2, Strategy: IslandsOfCores, Variant: decomp.VariantB}},
		{"islands-2d", odd, Config{Machine: m4, Strategy: IslandsOfCores, IslandGrid: [2]int{2, 2}}},
		// 22 j-cells over 8 workers: sub-parts narrower than any k-step
		// halo, so k > 1 compiles the recorded fallback.
		{"core-islands", odd, Config{Machine: m2, Strategy: IslandsOfCores, CoreIslands: true}},
		// 75 j-cells over 8 workers: sub-parts wide enough for k = 3.
		{"core-islands-wide", grid.Sz(23, 75, 5), Config{Machine: m2, Strategy: IslandsOfCores, CoreIslands: true}},
		// One island spanning the periodic domain is the geometry on which
		// k > 1 survives a periodic boundary (wrap bands at d > 0).
		{"islands-1node", odd, Config{Machine: topology.SingleSocket(), Strategy: IslandsOfCores}},
	}
	boundaries := []struct {
		name string
		bc   stencil.Boundary
	}{{"clamp", stencil.Clamp}, {"periodic", stencil.Periodic}}

	var out bytes.Buffer
	for _, sc := range strategies {
		for _, bc := range boundaries {
			for _, k := range []int{1, 2, 3} {
				if k > 1 && sc.cfg.Strategy != IslandsOfCores {
					continue // rejected by Config.Validate
				}
				for _, nofuse := range []bool{false, true} {
					cfg := sc.cfg
					cfg.Boundary, cfg.KSteps = bc.bc, k
					cfg.BlockI, cfg.Steps = 5, 5
					if k > 1 {
						cfg.Steps = k // a temporal block is the whole Run
					}
					cfg.DisableFusion = nofuse
					name := fmt.Sprintf("%s/%s/k%d", sc.name, bc.name, k)
					if nofuse {
						name += "/nofuse"
					}
					sum, n := scheduleDigest(t, cfg, sc.domain)
					fmt.Fprintf(&out, "%-44s items=%-6d %s\n", name, n, sum)
				}
			}
		}
	}

	// Owned-window rows (Config.Keep), appended so the whole-domain rows above
	// keep their place: one Run is one block (Steps == k), on a window inside
	// the domain and on one at its top i face.
	for _, sc := range strategies {
		switch sc.name {
		case "original", "plus31d", "islands-a", "core-islands-wide":
		default:
			continue
		}
		d := sc.domain
		windows := []struct {
			name string
			keep grid.Region
		}{
			{"interior", grid.Box(4, d.NI-6, 0, d.NJ, 0, d.NK)},
			{"top", grid.Box(d.NI-19, d.NI, 0, d.NJ, 0, d.NK)},
		}
		for _, bc := range boundaries {
			for _, k := range []int{1, 2, 3} {
				if k > 1 && sc.cfg.Strategy != IslandsOfCores {
					continue
				}
				for _, w := range windows {
					cfg := sc.cfg
					cfg.Boundary, cfg.KSteps, cfg.Steps = bc.bc, k, k
					cfg.BlockI, cfg.Keep = 5, w.keep
					sum, n := scheduleDigest(t, cfg, d)
					fmt.Fprintf(&out, "%-44s items=%-6d %s\n", fmt.Sprintf("keep/%s/%s/k%d/%s", sc.name, bc.name, k, w.name), n, sum)
				}
			}
		}
	}

	golden := filepath.Join("testdata", "schedule_digests.txt")
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestScheduleDigests -update)", err)
	}
	if bytes.Equal(want, out.Bytes()) {
		return
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(out.String(), "\n")
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			t.Errorf("compiled schedule moved:\n  golden: %s\n  now:    %s", w, g)
		}
	}
}
