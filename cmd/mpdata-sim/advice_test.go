package main

import (
	"strings"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/topology"
)

// TestAdviceReportFormat checks the -advise text on a two-socket ranking: a
// recommendation followed by every candidate, the shared-environment
// strategies included, and the fixed line for an empty ranking.
func TestAdviceReportFormat(t *testing.T) {
	m, err := topology.UV2000(2)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := exec.RankCandidates(m, &mpdata.NewProgram().Program, grid.Sz(128, 64, 16), exec.Config{Steps: 5}, exec.AdvisorSpace())
	if err != nil {
		t.Fatal(err)
	}
	rep := adviceReport(ranked)
	if !strings.HasPrefix(rep, "recommended: "+exec.CandidateLabel(ranked[0].Config)+" ") {
		t.Fatalf("report does not open with the recommendation:\n%s", rep)
	}
	if !strings.Contains(rep, "original") || !strings.Contains(rep, "(3+1)D") {
		t.Fatalf("report missing candidates:\n%s", rep)
	}
	if lines := strings.Count(rep, "\n"); lines < len(ranked)+1 {
		t.Fatalf("report has %d lines for %d candidates:\n%s", lines, len(ranked), rep)
	}
	if adviceReport(nil) != "no feasible configuration\n" {
		t.Fatal("empty report wrong")
	}
}
