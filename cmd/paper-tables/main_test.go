package main

import (
	"bytes"
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

// cliCases are invocations of the built binary, kept to a 2-processor sweep
// so they run in about a second. The full P = 1..14 report is pinned by
// `make report-check` against the committed report.md.
var cliCases = []struct{ name, args string }{
	{"table2_maxp2", "-maxp 2 -table 2"},
	{"table13_maxp2", "-maxp 2 -table 13"},
	{"csv_table1_maxp2", "-maxp 2 -csv -table 1"},
	{"reject_table", "-table 99"},
	{"reject_maxp", "-maxp 0"},
}

// TestGolden builds the command and compares stdout, stderr and the exit
// status of every case with testdata/<case>.golden. Run with -update to
// regenerate after an intended change of output.
func TestGolden(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paper-tables")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range cliCases {
		t.Run(c.name, func(t *testing.T) {
			cmd := exec.Command(bin, strings.Fields(c.args)...)
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
			got := fmt.Sprintf("$ paper-tables %s\nexit status %d\n-- stdout --\n%s-- stderr --\n%s", c.args, code, stdout.String(), stderr.String())
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
				t.Fatalf("%v (run go test ./cmd/paper-tables -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("paper-tables %s: output differs from %s\n--- got ---\n%s--- want ---\n%s", c.args, path, got, want)
			}
		})
	}
}
