package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	ns, err := Spec{Grid: "48x32x8", Steps: 3}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if ns.Domain.NI != 48 || ns.Domain.NJ != 32 || ns.Domain.NK != 8 {
		t.Fatalf("domain = %+v, want 48x32x8", ns.Domain)
	}
	if ns.Processors != 2 || ns.IORD != 2 {
		t.Fatalf("defaults = p%d iord%d, want p2 iord2", ns.Processors, ns.IORD)
	}
	if got := ns.StrategyName(); got != "islands-of-cores" {
		t.Fatalf("default strategy = %q, want islands-of-cores", got)
	}
}

func TestSpecStrategyNames(t *testing.T) {
	cases := []struct {
		strategy string
		core     bool
		want     string
	}{
		{"original", false, "original"},
		{"3+1d", false, "(3+1)D"},
		{"blocked", false, "(3+1)D"},
		{"islands", false, "islands-of-cores"},
		{"islands-of-cores", true, "islands-of-cores+core-islands"},
	}
	for _, c := range cases {
		ns, err := Spec{Grid: "16x8x4", Steps: 1, Strategy: c.strategy, CoreIslands: c.core}.Normalize()
		if err != nil {
			t.Fatalf("%q: %v", c.strategy, err)
		}
		if got := ns.StrategyName(); got != c.want {
			t.Fatalf("strategy %q -> %q, want %q", c.strategy, got, c.want)
		}
	}
}

// ksRejection is the one message every ksteps other than 0 or 1 gets.
const ksRejection = "ksteps must be 0 or 1"

func TestSpecValidationRejections(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"bad grid", Spec{Grid: "10", Steps: 1}, "grid"},
		{"zero grid dim", Spec{Grid: "0x8x4", Steps: 1}, "positive"},
		{"huge grid", Spec{Grid: "100000x100000x100000", Steps: 1}, "cells"},
		{"zero steps", Spec{Grid: "16x8x4", Steps: 0}, "steps"},
		{"negative steps", Spec{Grid: "16x8x4", Steps: -5}, "steps"},
		{"too many steps", Spec{Grid: "16x8x4", Steps: MaxSteps + 1}, "steps"},
		{"zero processors", Spec{Grid: "16x8x4", Steps: 1, Processors: -1}, "processors"},
		{"too many processors", Spec{Grid: "16x8x4", Steps: 1, Processors: 99}, "processors"},
		{"unknown strategy", Spec{Grid: "16x8x4", Steps: 1, Strategy: "magic"}, "strategy"},
		{"unknown placement", Spec{Grid: "16x8x4", Steps: 1, Placement: "diagonal"}, "placement"},
		{"unknown variant", Spec{Grid: "16x8x4", Steps: 1, Variant: "Z"}, "variant"},
		{"unknown boundary", Spec{Grid: "16x8x4", Steps: 1, Boundary: "wrap"}, "boundary"},
		{"core islands on original", Spec{Grid: "16x8x4", Steps: 1, Strategy: "original", CoreIslands: true}, "core"},
		{"bad iord", Spec{Grid: "16x8x4", Steps: 1, IORD: 9}, "iord"},
		// Every job advances one step at a time: any ksteps but 0 or 1 is
		// refused with one message, feasible or not, resident or streamed,
		// before anything is planned.
		{"negative ksteps", Spec{Grid: "16x8x4", Steps: 1, KSteps: -2}, ksRejection},
		{"ksteps on original", Spec{Grid: "16x8x4", Steps: 2, Strategy: "original", KSteps: 2}, ksRejection},
		{"ksteps not dividing steps", Spec{Grid: "32x16x8", Steps: 5, KSteps: 2}, ksRejection},
		{"infeasible ksteps", Spec{Grid: "16x16x8", Steps: 4, KSteps: 4}, ksRejection},
		{"feasible ksteps", Spec{Grid: "32x16x8", Steps: 4, KSteps: 4}, ksRejection},
		{"ksteps on a streamed job", Spec{Grid: "32x16x8", Steps: 4, Streamed: true, KSteps: 2}, ksRejection},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) = nil, want error mentioning %q", c.spec, c.want)
			}
			if !strings.Contains(strings.ToLower(err.Error()), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestCacheKeyIgnoresStepsAndProfile(t *testing.T) {
	base := Spec{Grid: "16x8x4", Steps: 1, Processors: 2}
	a, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	alt := base
	alt.Steps = 500
	alt.Profile = true
	alt.TimeoutMs = 9000
	b, err := alt.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Fatal("cache key varies with steps/profile/timeout; engines would never be reused across job lengths")
	}

	diff := base
	diff.Processors = 4
	c, err := diff.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() == c.Key() {
		t.Fatal("cache key ignores processor count; jobs would reuse a wrong topology")
	}

	// ksteps 0 and 1 are the same step-at-a-time run: one engine.
	one := base
	one.KSteps = 1
	d, err := one.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != d.Key() {
		t.Fatal("cache key varies between ksteps 0 and 1; both run one step per dispatch")
	}
}

func TestParseGridAgreesWithCLI(t *testing.T) {
	g, err := ParseGrid("12x34x56")
	if err != nil {
		t.Fatal(err)
	}
	if g.NI != 12 || g.NJ != 34 || g.NK != 56 {
		t.Fatalf("ParseGrid = %+v", g)
	}
	for _, bad := range []string{"", "12x34", "axbxc", "12x34x56x78"} {
		if _, err := ParseGrid(bad); err == nil {
			t.Fatalf("ParseGrid(%q) accepted", bad)
		}
	}
}

// FuzzSpecAdmit drives arbitrary bytes through the decoding POST /v1/jobs
// applies and then Spec.Normalize, the server's admission check: no input may
// panic, and every admitted spec must lie inside the documented bounds and
// yield an executor configuration. The seeds in testdata/fuzz/FuzzSpecAdmit
// are the bodies the wire tests and scripts/serve-smoke.sh send.
func FuzzSpecAdmit(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec Spec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&spec) != nil {
			return
		}
		ns, err := spec.Normalize()
		if err != nil {
			return
		}
		limit := MaxGridCells
		if ns.Streamed {
			limit = MaxStreamCells
		}
		if cells := int64(ns.Domain.NI) * int64(ns.Domain.NJ) * int64(ns.Domain.NK); cells < 1 || cells > limit {
			t.Fatalf("admitted %d cells (limit %d): %s", cells, limit, body)
		}
		if ns.Steps < 1 || ns.Steps > MaxSteps {
			t.Fatalf("admitted %d steps: %s", ns.Steps, body)
		}
		if ns.Processors < 1 || ns.Processors > MaxProcessors {
			t.Fatalf("admitted %d processors: %s", ns.Processors, body)
		}
		if spec.KSteps > 1 {
			t.Fatalf("admitted ksteps %d: %s", spec.KSteps, body)
		}
		if _, err := ns.ExecConfig(); err != nil {
			t.Fatalf("admitted spec has no executor configuration (%v): %s", err, body)
		}
	})
}
