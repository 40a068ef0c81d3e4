package exec

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"islands/internal/decomp"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// bits renders a float64 exactly: the shortest decimal that round-trips to
// the same bits.
func bits(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func bitsList(xs []float64) string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = bits(x)
	}
	return "[" + strings.Join(out, " ") + "]"
}

// modelRow renders every priced output of one model result bit for bit.
func modelRow(r *ModelResult) string {
	return fmt.Sprintf("step=%s total=%s mem=%s remote=%s extra=%s redundant=%s nodes=%s links=%s",
		bits(r.StepTime), bits(r.TotalTime), bits(r.MemTrafficBytes), bits(r.RemoteTrafficBytes),
		bits(r.ExtraElementsPct), bits(r.RedundantFlops), bitsList(r.NodeMemBytes), bitsList(r.LinkBytes))
}

// TestModelDigests pins the model backend bit for bit: the golden file holds
// the exact prices, traffic and counters of every strategy x placement x
// variant x machine size on both boundaries, 2D island grids, a scattered
// NodeOrder, multi-block and temporally blocked islands, the traced per-tag
// times of one run per strategy, and the stream cost of a tiled residency at
// several k. Small domains keep it cheap; regenerate with -update. A
// refactor of the model must leave the file byte-identical.
func TestModelDigests(t *testing.T) {
	prog := &mpdata.NewProgram().Program
	uvs := map[int]*topology.Machine{}
	uv := func(p int) *topology.Machine {
		if uvs[p] == nil {
			m, err := topology.UV2000(p)
			if err != nil {
				t.Fatal(err)
			}
			uvs[p] = m
		}
		return uvs[p]
	}
	var out bytes.Buffer
	row := func(name string, cfg Config, domain grid.Size) {
		t.Helper()
		r, err := Model(cfg, prog, domain)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&out, "%-44s %s\n", name, modelRow(r))
	}

	type shape struct {
		name string
		cfg  Config
	}
	shapes := []shape{
		{"original", Config{Strategy: Original}},
		{"plus31d", Config{Strategy: Plus31D}},
		{"islands-a", Config{Strategy: IslandsOfCores}},
		{"islands-b", Config{Strategy: IslandsOfCores, Variant: decomp.VariantB}},
		{"core-islands-a", Config{Strategy: IslandsOfCores, CoreIslands: true}},
		{"core-islands-b", Config{Strategy: IslandsOfCores, CoreIslands: true, Variant: decomp.VariantB}},
	}
	placements := []grid.PlacementPolicy{grid.FirstTouchSerial, grid.FirstTouchParallel, grid.Interleaved}
	boundaries := []struct {
		name string
		bc   stencil.Boundary
	}{{"clamp", stencil.Clamp}, {"periodic", stencil.Periodic}}
	small := grid.Sz(64, 32, 8)

	// Every strategy x placement x machine size, on both boundaries.
	for _, p := range []int{1, 2, 3, 4, 14} {
		for _, sh := range shapes {
			for _, pl := range placements {
				for _, bc := range boundaries {
					cfg := sh.cfg
					cfg.Machine, cfg.Placement, cfg.Boundary, cfg.Steps = uv(p), pl, bc.bc, 3
					row(fmt.Sprintf("p%d/%s/%s/%s", p, sh.name, pl, bc.name), cfg, small)
				}
			}
		}
	}
	// Several blocks per island: the representative block and the block
	// count scaling.
	for _, p := range []int{2, 3} {
		for _, sh := range shapes[1:] {
			cfg := sh.cfg
			cfg.Machine, cfg.Placement, cfg.Steps, cfg.BlockI = uv(p), grid.FirstTouchParallel, 2, 5
			row(fmt.Sprintf("p%d/%s/blocki5", p, sh.name), cfg, small)
		}
	}
	// 2D island grids, a scattered affinity and a two-IRU cluster.
	cluster, err := topology.ClusterOfUV(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	extra := []shape{
		{"p4/islands-2x2", Config{Machine: uv(4), Strategy: IslandsOfCores, IslandGrid: [2]int{2, 2}}},
		{"p4/core-islands-2x2", Config{Machine: uv(4), Strategy: IslandsOfCores, IslandGrid: [2]int{2, 2}, CoreIslands: true}},
		{"p14/islands-7x2", Config{Machine: uv(14), Strategy: IslandsOfCores, IslandGrid: [2]int{7, 2}}},
		{"p4/islands-order", Config{Machine: uv(4), Strategy: IslandsOfCores, NodeOrder: []int{2, 0, 3, 1}}},
		{"p4/core-islands-order", Config{Machine: uv(4), Strategy: IslandsOfCores, CoreIslands: true, NodeOrder: []int{2, 0, 3, 1}}},
		{"p14/islands-order", Config{Machine: uv(14), Strategy: IslandsOfCores, NodeOrder: []int{13, 0, 12, 1, 11, 2, 10, 3, 9, 4, 8, 5, 7, 6}}},
		{"cluster2x2/islands", Config{Machine: cluster, Strategy: IslandsOfCores}},
		{"cluster2x2/plus31d", Config{Machine: cluster, Strategy: Plus31D}},
	}
	for _, sh := range extra {
		for _, bc := range boundaries {
			cfg := sh.cfg
			cfg.Placement, cfg.Boundary, cfg.Steps = grid.FirstTouchParallel, bc.bc, 3
			row(fmt.Sprintf("%s/%s", sh.name, bc.name), cfg, small)
		}
	}
	// Temporal blocking (a whole Run as one k-step block), on a grid wide
	// enough in j for the core-level sub-islands to carry k = 2.
	wide := grid.Sz(48, 96, 6)
	for _, p := range []int{1, 2, 3} {
		for _, sh := range []shape{shapes[2], shapes[4]} {
			for _, k := range []int{2, 3} {
				for _, bc := range boundaries {
					cfg := sh.cfg
					cfg.Machine, cfg.Placement, cfg.Boundary = uv(p), grid.FirstTouchParallel, bc.bc
					cfg.Steps, cfg.KSteps = k, k
					row(fmt.Sprintf("p%d/%s/k%d/%s", p, sh.name, k, bc.name), cfg, wide)
				}
			}
		}
	}

	// Traced per-tag busy times of one run per strategy, sorted by tag.
	for _, sh := range shapes {
		if strings.HasSuffix(sh.name, "-b") {
			continue
		}
		cfg := sh.cfg
		cfg.Machine, cfg.Placement, cfg.Steps = uv(2), grid.FirstTouchParallel, 2
		r, _, err := ModelTrace(cfg, prog, small, 10)
		if err != nil {
			t.Fatal(err)
		}
		tags := r.TagTimes()
		names := make([]string, 0, len(tags))
		for tag := range tags {
			names = append(names, tag)
		}
		sort.Strings(names)
		for _, tag := range names {
			fmt.Fprintf(&out, "trace/%s %s %s\n", sh.name, tag, bits(tags[tag]))
		}
	}

	// The stream cost of a tiled residency at several k.
	scfg, sprog, an := streamTestSetup(t)
	for _, core := range []bool{false, true} {
		for _, k := range []int{1, 2, 4} {
			cfg := scfg
			cfg.CoreIslands = core
			c, err := streamCost(cfg, sprog, an, grid.Sz(100, 16, 6), 4, StreamChoice{TilePlanes: 26, K: k}, 0)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "stream/core=%v/k%d total=%s compute=%s cells=%s\n",
				core, k, bits(c.TotalSec), bits(c.ComputeSec), bits(c.StageCells))
		}
	}

	golden := filepath.Join("testdata", "model_digests.txt")
	if *updateDigests {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestModelDigests -update)", err)
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
			t.Errorf("model output moved:\n  golden: %s\n  now:    %s", w, g)
		}
	}
}
