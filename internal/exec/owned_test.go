package exec

import (
	"runtime"
	"testing"

	"islands/internal/grid"
	"islands/internal/mpdata"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// ownedHostMachine is a host-shaped machine whose workers fit in GOMAXPROCS:
// the UV 2000 of up to two sockets reshaped onto GOMAXPROCS CPUs, as a served
// engine is.
func ownedHostMachine(t *testing.T) *topology.Machine {
	procs := runtime.GOMAXPROCS(0)
	uv, err := topology.UV2000(min(2, procs))
	if err != nil {
		t.Fatal(err)
	}
	return topology.Host{Nodes: 1, CPUs: procs}.Run(uv)
}

// TestOwnedBarriersFollowTheSlots pins the ownership rule: a runner compiles
// owned barriers exactly when Config.Slots runners of its machine's workers
// fit in GOMAXPROCS. A host-shaped standalone or 1-slot runner owns the
// machine; the same runner in a 2-slot server, or on the UV 2000's shape,
// shares it.
func TestOwnedBarriersFollowTheSlots(t *testing.T) {
	host := ownedHostMachine(t)
	uv, err := topology.UV2000(4)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		machine *topology.Machine
		slots   int
		owned   bool
	}{
		{"host/standalone", host, 0, true},
		{"host/1-slot", host, 1, true},
		{"host/2-slot", host, 2, false},
		{"uv2000", uv, 0, false},
	}
	domain := grid.Sz(16, 8, 4)
	for _, c := range cases {
		for _, strategy := range []Strategy{Plus31D, IslandsOfCores} {
			t.Run(c.name+"/"+strategy.String(), func(t *testing.T) {
				if c.machine == uv && uv.TotalCores() <= runtime.GOMAXPROCS(0) {
					t.Skipf("GOMAXPROCS %d holds the UV 2000's %d workers", runtime.GOMAXPROCS(0), uv.TotalCores())
				}
				cfg := Config{Machine: c.machine, Strategy: strategy, Boundary: stencil.Clamp, Steps: 1, Slots: c.slots}
				state := freshState(domain)
				r, err := NewRunner(cfg, mpdata.NewProgram(), state.InputMap(), mpdata.InPsi)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if len(r.schedule.barriers) == 0 {
					t.Fatal("the schedule compiled no barrier")
				}
				for i, b := range r.schedule.barriers {
					if b.Owned() != c.owned {
						t.Fatalf("barrier %d of %d owned = %v, want %v (%d workers, %d slots, GOMAXPROCS %d)",
							i, len(r.schedule.barriers), b.Owned(), c.owned, c.machine.TotalCores(), c.slots, runtime.GOMAXPROCS(0))
					}
				}
			})
		}
	}
}
