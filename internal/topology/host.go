package topology

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Host is the machine the process runs on, as far as it shapes the executing
// teams: its NUMA nodes, the CPUs the process may run on, and the per-core
// private L2 and shared L3 capacities (0 when the cache sizes are unknown).
// The priced machine stays a Machine (the UV 2000); Run reshapes one for the
// host.
type Host struct {
	Nodes   int
	CPUs    int
	L2Bytes int64
	L3Bytes int64
}

// ThisHost returns the process's host, read once from
// /sys/devices/system/{node,cpu}. CPUs is runtime.NumCPU(), the affinity
// mask; without a readable /sys the host is one node with unknown caches.
var ThisHost = sync.OnceValue(func() Host {
	return readHost(os.DirFS("/sys/devices/system"), runtime.NumCPU())
})

// readHost parses a sysfs devices/system tree: the NUMA nodes that have CPUs
// (node/has_cpu), and cpu0's level-2 and level-3 data or unified cache
// sizes. Anything missing keeps its fallback: one node, unknown caches.
func readHost(sys fs.FS, cpus int) Host {
	h := Host{Nodes: 1, CPUs: max(cpus, 1)}
	if b, err := fs.ReadFile(sys, "node/has_cpu"); err == nil {
		if n := cpuListLen(strings.TrimSpace(string(b))); n > 0 {
			h.Nodes = n
		}
	}
	caches, _ := fs.Glob(sys, "cpu/cpu0/cache/index[0-9]*")
	for _, dir := range caches {
		read := func(name string) string {
			b, _ := fs.ReadFile(sys, path.Join(dir, name))
			return strings.TrimSpace(string(b))
		}
		if read("type") == "Instruction" {
			continue
		}
		size := parseCacheSize(read("size"))
		switch read("level") {
		case "2":
			h.L2Bytes = size
		case "3":
			h.L3Bytes = size
		}
	}
	return h
}

// cpuListLen counts the entries of a kernel cpu/node list ("0-3,8,10-11").
// A malformed list counts 0.
func cpuListLen(list string) int {
	n := 0
	for _, r := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(r, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil || b < a {
				return 0
			}
		}
		n += b - a + 1
	}
	return n
}

// parseCacheSize reads a sysfs cache size, which the kernel writes in KiB
// ("2048K"); 0 when malformed.
func parseCacheSize(s string) int64 {
	kib, ok := strings.CutSuffix(s, "K")
	v, err := strconv.ParseInt(kib, 10, 64)
	if !ok || err != nil || v < 0 {
		return 0
	}
	return v << 10
}

// Workers is the team size of each island when the host's CPUs are shared
// out over the given number of islands, at least one.
func (h Host) Workers(islands int) int { return max(1, h.CPUs/islands) }

// Run returns m reshaped to execute on the host: the same nodes (each one
// island), links and pricing fields, with each node's Cores set to the
// host's workers per island and its LLCBytes to the private L2 those workers
// hold, the cache a block of an island's sweep stays in. With the cache
// unknown LLCBytes is kept. m is not modified.
func (h Host) Run(m *Machine) *Machine {
	out := *m
	out.Nodes = make([]Node, len(m.Nodes))
	cores := h.Workers(len(m.Nodes))
	for i, n := range m.Nodes {
		n.Cores = cores
		if h.L2Bytes > 0 {
			n.LLCBytes = int64(cores) * h.L2Bytes
		}
		out.Nodes[i] = n
	}
	return &out
}

// String renders the host for start-up logs.
func (h Host) String() string {
	cache := func(b int64) string {
		if b <= 0 {
			return "unknown"
		}
		return fmt.Sprintf("%g MiB", float64(b)/(1<<20))
	}
	return fmt.Sprintf("%d NUMA node(s), %d CPUs, L2 %s per core, L3 %s",
		h.Nodes, h.CPUs, cache(h.L2Bytes), cache(h.L3Bytes))
}
