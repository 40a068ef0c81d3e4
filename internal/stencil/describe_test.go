package stencil

import (
	"strings"
	"testing"
)

func TestDescribeWithAnalysis(t *testing.T) {
	prog := &Fig1Program().Program
	h, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Describe(h)
	for _, want := range []string{
		"program fig1",
		"7 flops/cell/step",
		"1. A",
		"3. C",
		"halo vs output",
		"step-input halos",
		"in     i[-2,+2]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeWithoutAnalysis(t *testing.T) {
	prog := &Fig1Program().Program
	out := prog.Describe(nil)
	if strings.Contains(out, "halo") {
		t.Fatalf("describe(nil) must omit halo info:\n%s", out)
	}
	if !strings.Contains(out, "reads in{i[-0,+1]") {
		t.Fatalf("describe missing read extents:\n%s", out)
	}
}
