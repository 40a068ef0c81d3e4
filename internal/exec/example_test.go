package exec_test

import (
	"fmt"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/topology"
)

// ExampleRankCandidates ranks the strategies for an 8-socket run: islands
// configurations dominate, the machine-wide (3+1)D decomposition comes last.
func ExampleRankCandidates() {
	m, err := topology.UV2000(8)
	if err != nil {
		panic(err)
	}
	ranked, err := exec.RankCandidates(m, &mpdata.NewProgram().Program, grid.Sz(512, 256, 32),
		exec.Config{Steps: 10}, exec.AdvisorSpace())
	if err != nil {
		panic(err)
	}
	fmt.Printf("best uses islands: %v\n", ranked[0].Config.Strategy == exec.IslandsOfCores)
	fmt.Printf("worst: %s\n", exec.CandidateLabel(ranked[len(ranked)-1].Config))
	// Output:
	// best uses islands: true
	// worst: (3+1)D
}
