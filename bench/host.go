package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint identifies the host and build a set of numbers was taken on.
// Two outputs are only ever compared when their fingerprints are equal.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	// SpillKind is the filesystem streamed jobs spill to ("tmpfs" or
	// "disk"); SpillDir is where, relative to the checkout.
	SpillKind string `json:"spill_kind"`
	SpillDir  string `json:"spill_dir"`
	// Cache sizes of cpu0, beside the size of one resident-sweep field.
	L2KiB      int     `json:"l2_kib"`
	L3KiB      int     `json:"l3_kib"`
	FieldKiB   int     `json:"sweep_field_kib"`
	RunSeconds float64 `json:"run_seconds"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func hostFingerprint(seed int64, runSeconds float64) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: commit, Seed: seed,
		SpillDir: buildDir, SpillKind: fsKind("."),
		FieldKiB:   int(workloads[0].classes[0].ns.Domain.Cells() * 8 / 1024),
		RunSeconds: runSeconds,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	fp.L2KiB = cacheKiB(2)
	fp.L3KiB = cacheKiB(3)
	return fp
}

// cacheKiB reads cpu0's cache size at the given level from sysfs (0 when
// the host does not say).
func cacheKiB(level int) int {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil || strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		raw, err := os.ReadFile(dir + "size")
		if err != nil {
			return 0
		}
		s := strings.TrimSpace(string(raw))
		mult := 1
		if t, ok := strings.CutSuffix(s, "K"); ok {
			s = t
		} else if t, ok := strings.CutSuffix(s, "M"); ok {
			s, mult = t, 1024
		}
		n, _ := strconv.Atoi(s) // unparsable reads as 0 = unknown
		return n * mult
	}
	return 0
}

// fsKind reports whether dir is on tmpfs or on a disk-backed filesystem.
func fsKind(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	const tmpfsMagic = 0x01021994
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}

// procStatusMiB reads one kB-valued field of /proc/self/status ("VmHWM",
// "VmRSS") in MiB.
func procStatusMiB(field string) float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSeconds is the user+system CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
