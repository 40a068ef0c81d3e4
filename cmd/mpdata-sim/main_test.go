package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the built binary's output")

// cliCase is one invocation of the built binary. $TMP in args is replaced by
// the case's scratch directory (and replaced back in the recorded output).
type cliCase struct {
	name string
	args string
	// cut, when set, drops stdout from the first line starting with it: what
	// follows is wall-clock timings.
	cut string
	// hashFile, when set, names a file under $TMP the run must have written;
	// its SHA-256 is recorded in the golden.
	hashFile string
	// twice runs the invocation a second time and records that one (a named
	// spill store resuming from the first run's checkpoint).
	twice bool
}

var cliCases = []cliCase{
	{name: "compute_mpdata", args: "-grid 64x32x12 -steps 4 -p 2"},
	{name: "compute_heat", args: "-solver heat -grid 64x32x12 -steps 4 -p 2"},
	{name: "compute_original_serial_B", args: "-grid 48x24x8 -steps 3 -p 3 -strategy original -placement serial -variant B"},
	{name: "compute_coreislands_iord3", args: "-grid 48x24x8 -steps 3 -p 2 -coreislands -iord 3"},
	{name: "compute_remainder_block", args: "-grid 64x32x12 -steps 10 -p 2 -ksteps 4"},
	{name: "dump", args: "-grid 32x16x8 -steps 3 -p 2 -dump $TMP/psi.bin", hashFile: "psi.bin"},
	{name: "dump_lbm", args: "-solver lbm -grid 32x16x9 -steps 3 -p 2 -dump $TMP/f.bin", hashFile: "f.bin"},
	{name: "plan", args: "-grid 64x32x12 -steps 4 -p 2 -plan"},
	{name: "plan_ksteps", args: "-grid 64x32x12 -steps 4 -p 2 -ksteps 2 -plan"},
	{name: "schedule_ksteps", args: "-grid 64x32x12 -steps 4 -p 2 -schedule -ksteps 2"},
	{name: "schedule_heat", args: "-solver heat -grid 32x16x8 -steps 2 -p 2 -schedule"},
	{name: "advise", args: "-grid 64x32x12 -steps 4 -p 4 -advise"},
	{name: "topology", args: "-p 3 -topology"},
	{name: "model_counters_trace_ksteps", args: "-grid 64x32x12 -steps 4 -p 2 -ksteps 2 -compute=false -counters -modeltrace"},
	{name: "model_counters_trace", args: "-grid 64x32x12 -steps 4 -p 2 -strategy 3+1d -compute=false -counters -modeltrace"},
	{name: "model_heat", args: "-solver heat -grid 64x32x12 -steps 4 -p 2 -compute=false"},
	{name: "stream_tiled", args: "-grid 96x32x8 -steps 2 -p 2 -stream-budget-mb 2", cut: "out-of-core stream:"},
	{name: "stream_fits", args: "-grid 64x32x12 -steps 4 -p 2 -stream-budget-mb 64", cut: "out-of-core stream:"},
	{name: "stream_resume", args: "-grid 96x32x8 -steps 2 -p 2 -stream-budget-mb 2 -spill-dir $TMP/store", cut: "out-of-core stream:", twice: true},
	{name: "tune_ranking", args: "-grid 32x16x8 -steps 4 -p 2 -tune", cut: "calibration runs"},
	{name: "profile_header", args: "-grid 32x16x8 -steps 2 -p 2 -profile", cut: "Runtime profile:"},
	{name: "trace", args: "-grid 32x16x8 -steps 2 -p 2 -ksteps 2 -trace $TMP/trace.json"},
	{name: "help", args: "-help"},
	{name: "reject_grid", args: "-grid 0x1x1"},
	{name: "reject_grid_shape", args: "-grid 64x32"},
	{name: "reject_steps", args: "-steps 0"},
	{name: "reject_processors", args: "-p 15"},
	{name: "reject_strategy", args: "-strategy nope"},
	{name: "reject_placement", args: "-placement nope"},
	{name: "reject_variant", args: "-variant C"},
	{name: "reject_solver", args: "-solver nope"},
	{name: "reject_solver_domain", args: "-solver lbm -grid 32x16x8"},
	{name: "reject_ksteps_negative", args: "-ksteps -1"},
	{name: "reject_ksteps_strategy", args: "-ksteps 2 -strategy original"},
	{name: "reject_ksteps_infeasible", args: "-grid 16x16x8 -steps 4 -p 2 -ksteps 4"},
	{name: "reject_iord_solver", args: "-solver heat -iord 2"},
	{name: "reject_ksteps_streamed", args: "-grid 96x32x8 -steps 2 -ksteps 2 -stream-budget-mb 2"},
	{name: "reject_dump_nocompute", args: "-grid 32x16x8 -steps 2 -compute=false -dump $TMP/psi.bin"},
}

// TestGolden builds the command and compares stdout, stderr and the exit
// status of every deterministic mode, and of every rejection, with
// testdata/<case>.golden. Run with -update to regenerate after an intended
// change of output.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mpdata-sim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range cliCases {
		t.Run(c.name, func(t *testing.T) {
			tmp := t.TempDir()
			got := runCase(t, bin, tmp, c)
			if c.twice {
				got = runCase(t, bin, tmp, c)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run go test ./cmd/mpdata-sim -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("mpdata-sim %s: output differs from %s\n--- got ---\n%s--- want ---\n%s", c.args, path, got, want)
			}
		})
	}
}

// runCase runs one invocation and renders what the golden file holds.
func runCase(t *testing.T, bin, tmp string, c cliCase) string {
	t.Helper()
	cmd := exec.Command(bin, strings.Fields(strings.ReplaceAll(c.args, "$TMP", tmp))...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("run: %v", err)
		}
		code = ee.ExitCode()
	}
	out := stdout.String()
	if i := strings.Index(out, "\n"+c.cut); c.cut != "" && i >= 0 {
		out = out[:i+1]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "$ mpdata-sim %s\nexit status %d\n-- stdout --\n%s-- stderr --\n%s", c.args, code, out, stderr.String())
	if c.hashFile != "" {
		raw, err := os.ReadFile(filepath.Join(tmp, c.hashFile))
		if err != nil {
			t.Fatalf("the run wrote no %s: %v", c.hashFile, err)
		}
		fmt.Fprintf(&b, "-- sha256 %s --\n%x\n", c.hashFile, sha256.Sum256(raw))
	}
	// The scratch directory and the binary's own path (the usage header) are
	// the only run-dependent text.
	s := strings.ReplaceAll(b.String(), tmp, "$TMP")
	return strings.ReplaceAll(s, bin, "mpdata-sim")
}
