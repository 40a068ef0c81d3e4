//go:build unix

package stream

import (
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"islands/internal/exec"
	"islands/internal/grid"
	"islands/internal/stencil"
	"islands/internal/topology"
)

// TestMain lets the test binary double as a second opener of a store:
// `stream.test open-store DIR` opens DIR as a resumable store, closes it and
// exits 0, or prints New's error and exits 1.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "open-store" {
		s, err := newNamedStore(os.Args[2])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := s.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newNamedStore opens dir as a small multi-tile resumable store.
func newNamedStore(dir string) (*Streamer, error) {
	machine, err := topology.UV2000(2)
	if err != nil {
		return nil, err
	}
	return New(Options{
		Dir:    dir,
		Exec:   exec.Config{Machine: machine, Strategy: exec.IslandsOfCores, Boundary: stencil.Clamp, Steps: 4, KSteps: 2},
		Domain: grid.Sz(24, 6, 4), TilePlanes: 6, Resume: true,
	})
}

// TestNamedStoreLockedAcrossProcesses opens a resumable store and then opens
// it again from a child process, which must fail naming this process's pid
// before it touches the store, as must a second New in this process, which
// must leave nothing open. Once the holder closes the store the child opens
// it.
func TestNamedStoreLockedAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	holder, err := newNamedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	want := fmt.Sprintf("store %s is held by pid %d", dir, os.Getpid())

	out, err := osexec.Command(os.Args[0], "open-store", dir).CombinedOutput()
	if err == nil || !strings.Contains(string(out), want) {
		t.Fatalf("child opener of a held store: err %v, output %q; want a failure naming %q", err, out, want)
	}

	fds, maps := openUnder(t, dir)
	if s, err := newNamedStore(dir); err == nil {
		s.Close()
		t.Fatal("a second New in the holder's process opened the held store")
	} else if !strings.Contains(err.Error(), want) {
		t.Fatalf("second New: %v, want an error naming %q", err, want)
	}
	if f, m := openUnder(t, dir); f != fds || m != maps {
		t.Errorf("the failed New changed the descriptors/mappings under the store from %d/%d to %d/%d", fds, maps, f, m)
	}

	// The held store is intact: the holder still runs it to the end.
	if err := holder.Run(); err != nil {
		t.Fatalf("the holder's run after the refused openers: %v", err)
	}
	if err := holder.Close(); err != nil {
		t.Fatal(err)
	}
	if out, err := osexec.Command(os.Args[0], "open-store", dir).CombinedOutput(); err != nil {
		t.Fatalf("child opener of a released store: %v, output %q", err, out)
	}
}

// TestLockWithoutPidNamesNoPid holds a store's lock without writing a pid, as
// a holder does between taking the lock and writing its pid: a second opener
// must then say that another process holds it, not print an empty pid.
func TestLockWithoutPidNamesNoPid(t *testing.T) {
	dir := t.TempDir()
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		t.Fatal(err)
	}
	if s, err := newNamedStore(dir); err == nil {
		s.Close()
		t.Fatal("New opened a store whose lock is held")
	} else if want := fmt.Sprintf("store %s is held by another process", dir); err.Error() != "stream: "+want {
		t.Fatalf("New on a held store with no pid: %v, want %q", err, want)
	}
}
