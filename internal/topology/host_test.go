package topology

import (
	"reflect"
	"testing"
	"testing/fstest"
)

// cacheIndex adds one cpu0 cache directory to a fixture sysfs tree.
func cacheIndex(fsys fstest.MapFS, idx, level, typ, size string) {
	dir := "cpu/cpu0/cache/index" + idx + "/"
	fsys[dir+"level"] = &fstest.MapFile{Data: []byte(level + "\n")}
	fsys[dir+"type"] = &fstest.MapFile{Data: []byte(typ + "\n")}
	fsys[dir+"size"] = &fstest.MapFile{Data: []byte(size + "\n")}
}

func TestReadHost(t *testing.T) {
	// A 2-vCPU Xeon guest: one node, 48K L1d, 32K L1i, 2 MiB L2, 105 MiB L3.
	guest := fstest.MapFS{
		"node/has_cpu":       {Data: []byte("0\n")},
		"node/node0/cpulist": {Data: []byte("0-1\n")},
		"cpu/online":         {Data: []byte("0-1\n")},
	}
	cacheIndex(guest, "0", "1", "Data", "48K")
	cacheIndex(guest, "1", "1", "Instruction", "32K")
	cacheIndex(guest, "2", "2", "Unified", "2048K")
	cacheIndex(guest, "3", "3", "Unified", "107520K")

	// A two-socket box with a memory-only third node, which has_cpu leaves
	// out.
	twoSocket := fstest.MapFS{
		"node/has_cpu":       {Data: []byte("0-1\n")},
		"node/online":        {Data: []byte("0-2\n")},
		"node/node0/cpulist": {Data: []byte("0-3\n")},
		"node/node1/cpulist": {Data: []byte("4-7\n")},
		"node/node2/cpulist": {Data: []byte("\n")},
	}
	cacheIndex(twoSocket, "0", "1", "Data", "32K")
	cacheIndex(twoSocket, "2", "2", "Unified", "1024K")
	cacheIndex(twoSocket, "3", "3", "Unified", "32768K")

	cases := []struct {
		name string
		fsys fstest.MapFS
		cpus int
		want Host
	}{
		{"guest", guest, 2, Host{Nodes: 1, CPUs: 2, L2Bytes: 2 << 20, L3Bytes: 105 << 20}},
		{"two-socket", twoSocket, 8, Host{Nodes: 2, CPUs: 8, L2Bytes: 1 << 20, L3Bytes: 32 << 20}},
		{"no-sysfs", fstest.MapFS{}, 3, Host{Nodes: 1, CPUs: 3}},
		{"no-cpus", fstest.MapFS{}, 0, Host{Nodes: 1, CPUs: 1}},
		{"malformed", fstest.MapFS{
			"node/has_cpu":                {Data: []byte("zero\n")},
			"cpu/cpu0/cache/index2/level": {Data: []byte("2\n")},
			"cpu/cpu0/cache/index2/size":  {Data: []byte("2MB\n")},
		}, 2, Host{Nodes: 1, CPUs: 2}},
	}
	for _, tc := range cases {
		if got := readHost(tc.fsys, tc.cpus); got != tc.want {
			t.Errorf("%s: readHost = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestHostString(t *testing.T) {
	for h, want := range map[Host]string{
		{Nodes: 1, CPUs: 2, L2Bytes: 2 << 20, L3Bytes: 105 << 20}: "1 NUMA node(s), 2 CPUs, L2 2 MiB per core, L3 105 MiB",
		{Nodes: 2, CPUs: 8, L2Bytes: 512 << 10}:                   "2 NUMA node(s), 8 CPUs, L2 0.5 MiB per core, L3 unknown",
	} {
		if got := h.String(); got != want {
			t.Errorf("%+v renders %q, want %q", h, got, want)
		}
	}
}

func TestCPUListLen(t *testing.T) {
	for list, want := range map[string]int{"0": 1, "0-1": 2, "0-3,8,10-11": 7, "": 0, "a": 0, "3-1": 0} {
		if got := cpuListLen(list); got != want {
			t.Errorf("cpuListLen(%q) = %d, want %d", list, got, want)
		}
	}
}

// TestHostRun pins the reshape: the node count, links, routes and pricing
// fields of the UV 2000 survive; only Cores (the host's CPUs shared out over
// the islands) and LLCBytes (those workers' private L2) change, and the
// priced machine itself is untouched.
func TestHostRun(t *testing.T) {
	for _, p := range []int{1, 2, 14} {
		for _, h := range []Host{
			{Nodes: 1, CPUs: 2, L2Bytes: 2 << 20, L3Bytes: 105 << 20},
			{Nodes: 4, CPUs: 64, L2Bytes: 1 << 20},
			{Nodes: 1, CPUs: 2}, // caches unknown
		} {
			m, err := UV2000(p)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := UV2000(p)
			got := h.Run(m)
			if !reflect.DeepEqual(m, before) {
				t.Fatalf("p=%d %v: Run modified its input", p, h)
			}
			wantCores := max(1, h.CPUs/p)
			wantLLC := m.Nodes[0].LLCBytes
			if h.L2Bytes > 0 {
				wantLLC = int64(wantCores) * h.L2Bytes
			}
			if got.NumNodes() != p || got.Name != m.Name || !reflect.DeepEqual(got.Links, m.Links) {
				t.Fatalf("p=%d %v: nodes/name/links changed", p, h)
			}
			for i, n := range got.Nodes {
				if n.Cores != wantCores || n.LLCBytes != wantLLC {
					t.Errorf("p=%d %v node %d: cores %d LLC %d, want %d and %d", p, h, i, n.Cores, n.LLCBytes, wantCores, wantLLC)
				}
				priced := m.Nodes[i]
				priced.Cores, priced.LLCBytes = n.Cores, n.LLCBytes
				if n != priced {
					t.Errorf("p=%d %v node %d: pricing fields changed: %+v, priced %+v", p, h, i, n, m.Nodes[i])
				}
				for j := range got.Nodes {
					if got.Hops(i, j) != m.Hops(i, j) || !reflect.DeepEqual(got.Path(i, j), m.Path(i, j)) {
						t.Errorf("p=%d %v: route %d->%d changed", p, h, i, j)
					}
				}
			}
		}
	}
	// The shapes the serving workloads meet on a 2-CPU host.
	h := Host{Nodes: 1, CPUs: 2, L2Bytes: 2 << 20}
	for p, want := range map[int]int{1: 2, 2: 1, 14: 1} {
		m, _ := UV2000(p)
		if got := h.Run(m).TotalCores(); got != want*p {
			t.Errorf("UV2000(%d) on 2 CPUs runs %d workers, want %d", p, got, want*p)
		}
	}
}

// TestReadMemory: the physical memory, the cgroup v2 limit when it is the
// smaller, "max" as no limit, and 0 when nothing is readable.
func TestReadMemory(t *testing.T) {
	meminfo := &fstest.MapFile{Data: []byte("MemTotal:        8222320 kB\nMemFree:         6000000 kB\n")}
	for _, c := range []struct {
		name string
		fsys fstest.MapFS
		want int64
	}{
		{"meminfo", fstest.MapFS{"proc/meminfo": meminfo}, 8222320 << 10},
		{"cgroup-smaller", fstest.MapFS{"proc/meminfo": meminfo, "sys/fs/cgroup/memory.max": {Data: []byte("1073741824\n")}}, 1 << 30},
		{"cgroup-larger", fstest.MapFS{"proc/meminfo": meminfo, "sys/fs/cgroup/memory.max": {Data: []byte("1099511627776\n")}}, 8222320 << 10},
		{"cgroup-max", fstest.MapFS{"proc/meminfo": meminfo, "sys/fs/cgroup/memory.max": {Data: []byte("max\n")}}, 8222320 << 10},
		{"cgroup-only", fstest.MapFS{"sys/fs/cgroup/memory.max": {Data: []byte("536870912\n")}}, 512 << 20},
		{"nothing", fstest.MapFS{}, 0},
	} {
		if got := readMemory(c.fsys); got != c.want {
			t.Errorf("%s: %d bytes, want %d", c.name, got, c.want)
		}
	}
	if ThisMemory() <= 0 {
		t.Logf("this machine's memory is unreadable; admission will not price resident jobs")
	}
}
