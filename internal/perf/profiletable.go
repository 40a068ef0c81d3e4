package perf

import (
	"fmt"
	"runtime"
	"time"

	"islands/internal/exec"
)

// This file renders the compute backend's measured runtime profiles
// (exec.Profile) in the repository's table format: the per-phase breakdown
// with barrier-wait accounting, the per-island imbalance, and the
// measured-versus-model comparison that closes the loop between the traced
// machine model and real goroutine execution.

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ProfileTable renders a measured runtime profile as one row per schedule
// phase: core-time spent computing, spinning and parked at the phase's
// sealing barrier, and the phase's share of all accounted core-time. A final
// "total" row sums the columns.
func ProfileTable(strategy string, prof *exec.Profile) *Table {
	t := &Table{
		Title: fmt.Sprintf("Runtime profile: %s, %d steps, %d workers, wall %v",
			strategy, prof.Steps, prof.Workers, prof.Wall.Round(time.Microsecond)),
		ColHead: "phase",
		Cols:    []string{"compute ms", "spin ms", "park ms", "wait %", "share %"},
	}
	var total exec.PhaseProfile
	var grand time.Duration
	for _, ph := range prof.Phases {
		grand += ph.Compute + ph.Barrier()
	}
	for _, ph := range prof.Phases {
		total.Compute += ph.Compute
		total.Spin += ph.Spin
		total.Park += ph.Park
		all := ph.Compute + ph.Barrier()
		waitPct, sharePct := 0.0, 0.0
		if all > 0 {
			waitPct = 100 * float64(ph.Barrier()) / float64(all)
		}
		if grand > 0 {
			sharePct = 100 * float64(all) / float64(grand)
		}
		t.AddRow(ph.Label, "%.2f", []float64{
			ms(ph.Compute), ms(ph.Spin), ms(ph.Park), waitPct, sharePct,
		})
	}
	waitPct := 0.0
	if grand > 0 {
		waitPct = 100 * float64(total.Barrier()) / float64(grand)
	}
	t.AddRow("total", "%.2f", []float64{
		ms(total.Compute), ms(total.Spin), ms(total.Park), waitPct, 100,
	})
	return t
}

// IslandTable renders the per-island (team) side of a measured profile: each
// island's summed compute and barrier-wait time plus the intra-island
// imbalance between its slowest and fastest worker — the quantity the
// paper's trapezoid redundancy trades against synchronization.
func IslandTable(strategy string, prof *exec.Profile) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Per-island profile: %s, %d steps", strategy, prof.Steps),
		ColHead: "island",
		Cols:    []string{"workers", "compute ms", "wait ms", "min ms", "max ms", "imbalance %"},
	}
	for _, ip := range prof.Islands {
		t.AddRow(fmt.Sprintf("team %d", ip.Team), "%.2f", []float64{
			float64(ip.Workers), ms(ip.Compute), ms(ip.Spin + ip.Park),
			ms(ip.MinWorker), ms(ip.MaxWorker), ip.ImbalancePct(),
		})
	}
	return t
}

// ProfileVsModelTable compares where a measured run's time goes against the
// traced machine model's prediction for the same configuration. The model
// prices one core per worker; a host usually has fewer, and a worker
// goroutine without a core waits at its barrier without costing anything. So
// the measured column is of core time — what the run had: its wall time on
// min(workers, GOMAXPROCS) cores — with work the kernel and copy time
// (mapping onto the model's compute, halo and fill: the model prices remote
// pulls and first-touch fills that the real run pays inside its kernels) and
// idle/wait the rest, against the model's barrier category. The last column
// keeps the share of goroutine time (compute against compute+spin+park over
// all workers): with more workers than cores it reads mostly wait whatever
// the cores are doing, and is not a measure of lost time.
func ProfileVsModelTable(strategy string, prof *exec.Profile, modelTags map[string]float64) *Table {
	return profileVsModelTable(strategy, prof, modelTags, runtime.GOMAXPROCS(0))
}

func profileVsModelTable(strategy string, prof *exec.Profile, modelTags map[string]float64, procs int) *Table {
	var compute, barrier time.Duration
	for _, ph := range prof.Phases {
		compute += ph.Compute
		barrier += ph.Barrier()
	}
	cores := min(prof.Workers, procs)
	var work, ofGoroutines float64
	if coreTime := float64(prof.Wall) * float64(cores); coreTime > 0 {
		work = min(100, 100*float64(compute)/coreTime)
	}
	if total := compute + barrier; total > 0 {
		ofGoroutines = 100 * float64(compute) / float64(total)
	}
	shares := CategorizeTagTimes(modelTags)
	t := &Table{
		Title: fmt.Sprintf("Measured vs model core-time [%%]: %s on %d cores (work = compute+halo+fill)",
			strategy, cores),
		ColHead: "category",
		Cols:    []string{"measured", "model", "of goroutine time"},
	}
	t.AddRow("work", "%.1f", []float64{work, shares["compute"] + shares["halo"] + shares["fill"], ofGoroutines})
	t.AddRow("idle/wait", "%.1f", []float64{100 - work, shares["barrier"], 100 - ofGoroutines})
	return t
}
