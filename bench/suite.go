package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// set is one full pass over the workloads: what -out writes and -compare
// reads.
type set struct {
	Fingerprint fingerprint `json:"fingerprint"`
	// EndToEnd and PerLayer hold each workload's result line, by workload.
	EndToEnd map[string]*result `json:"end_to_end"`
	PerLayer map[string]*result `json:"per_layer,omitempty"`
}

// runChild runs one workload in a child process — its own heap, its own
// peak RSS, no warmed caches from the workload before — and parses the
// fingerprint and result lines of its output. The rest of the child's output
// is passed through.
func runChild(o options, w *workload, trace int) (*result, fingerprint, error) {
	var fp fingerprint
	self, err := os.Executable()
	if err != nil {
		return nil, fp, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	if trace == 1 {
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return nil, fp, err
		}
		args = append(args, "-trace-out", filepath.Join(buildDir, "trace-"+w.name+".json"))
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res *result
	for i, line := range lines {
		switch raw, isFP := strings.CutPrefix(line, "fingerprint: "); {
		case isFP:
			if err := json.Unmarshal([]byte(raw), &fp); err != nil {
				return nil, fp, fmt.Errorf("%s: fingerprint line: %w", w.name, err)
			}
		case i == len(lines)-1 && strings.HasPrefix(line, "{"):
			res = &result{}
			if err := json.Unmarshal([]byte(line), res); err != nil {
				return nil, fp, fmt.Errorf("%s: result line: %w", w.name, err)
			}
		default:
			fmt.Printf("  %s\n", line)
		}
	}
	if runErr != nil {
		return nil, fp, fmt.Errorf("%s (trace %d): %w", w.name, trace, runErr)
	}
	if res == nil {
		return nil, fp, fmt.Errorf("%s (trace %d): no result line", w.name, trace)
	}
	return res, fp, nil
}

// selected returns the workloads a suite run covers.
func selected(o options) ([]*workload, error) {
	if o.workload == "" {
		return workloads, nil
	}
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return []*workload{w}, nil
}

// runSet runs every selected workload once, timed and (if traced) traced.
func runSet(o options, traced bool) (*set, error) {
	ws, err := selected(o)
	if err != nil {
		return nil, err
	}
	s := &set{EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	for _, w := range ws {
		fmt.Printf("== %s: timed run\n", w.name)
		res, fp, err := runChild(o, w, 0)
		if err != nil {
			return nil, err
		}
		s.Fingerprint, s.EndToEnd[w.name] = fp, res
		if traced {
			fmt.Printf("== %s: traced run\n", w.name)
			if s.PerLayer[w.name], _, err = runChild(o, w, 1); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func runSuite(o options) error {
	if o.check {
		return runCheck(o)
	}
	s, err := runSet(o, true)
	if err != nil {
		return err
	}
	s.print(os.Stdout)
	if o.out != "" {
		raw, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(o.out, append(raw, '\n'), 0o644)
	}
	return nil
}

// print writes the set as two tables, one column per workload.
func (s *set) print(w io.Writer) {
	fp, _ := json.Marshal(s.Fingerprint) // a struct of strings and ints cannot fail
	fmt.Fprintf(w, "\nfingerprint: %s\n", fp)
	table := func(title string, defs []metricDef, by map[string]*result) {
		fmt.Fprintf(w, "\n%-46s %-12s", title, "unit")
		for _, wl := range workloads {
			if by[wl.name] != nil {
				fmt.Fprintf(w, " %15s", wl.name)
			}
		}
		fmt.Fprintln(w)
		for _, d := range defs {
			fmt.Fprintf(w, "%-46s %-12s", d.name, d.unit)
			for _, wl := range workloads {
				if r := by[wl.name]; r != nil {
					fmt.Fprintf(w, " %15.4f", r.Metrics[d.name].Value)
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-46s %-12s", "failed / attempted", "jobs")
		for _, wl := range workloads {
			if r := by[wl.name]; r != nil {
				fmt.Fprintf(w, " %15s", fmt.Sprintf("%d / %d", r.Failed, r.Attempted))
			}
		}
		fmt.Fprintln(w)
	}
	table("end-to-end (timed run, tracing off)", endToEnd, s.EndToEnd)
	if len(s.PerLayer) > 0 {
		table("per-layer (traced run; 0 = layer not entered)", perLayer, s.PerLayer)
	}
}

// gap is how much worse b reads than a, as a share of a, in the metric's
// own direction: positive is worse.
func gap(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both values, the
// relative gap and the bound, and returns how many gaps exceed their bound.
// It refuses sets whose fingerprints differ: numbers from two hosts, builds,
// seeds or run lengths are not comparable.
func compareSets(w io.Writer, a, b *set) (over int, err error) {
	if a.Fingerprint != b.Fingerprint {
		fa, _ := json.Marshal(a.Fingerprint)
		fb, _ := json.Marshal(b.Fingerprint)
		return 0, fmt.Errorf("fingerprints differ, refusing to compare:\n  %s\n  %s", fa, fb)
	}
	fmt.Fprintf(w, "\n%-16s %-20s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "gap", "bound")
	for _, wl := range workloads {
		ra, rb := a.EndToEnd[wl.name], b.EndToEnd[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			g := gap(d, ra.Metrics[d.name].Value, rb.Metrics[d.name].Value)
			mark := ""
			if g > d.bound {
				mark = "  OVER"
				over++
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n", wl.name, d.name,
				ra.Metrics[d.name].Value, rb.Metrics[d.name].Value, 100*g, 100*d.bound, mark)
		}
	}
	return over, nil
}

// runCheck is -check: two timed sets of the same code, back to back, must
// agree within the benchmark's own bounds.
func runCheck(o options) error {
	first, err := runSet(o, false)
	if err != nil {
		return err
	}
	second, err := runSet(o, false)
	if err != nil {
		return err
	}
	over, err := compareSets(os.Stdout, first, second)
	if err != nil {
		return err
	}
	if over > 0 && !o.quick {
		return fmt.Errorf("%d metrics differ between two runs of the same code by more than their bound", over)
	}
	return nil
}

func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files written with -out")
	}
	var sets [2]set
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	over, err := compareSets(os.Stdout, &sets[0], &sets[1])
	if err != nil {
		return err
	}
	if over > 0 {
		return fmt.Errorf("%d metrics are worse in %s by more than their bound", over, paths[1])
	}
	return nil
}
