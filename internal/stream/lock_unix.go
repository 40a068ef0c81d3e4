//go:build unix

package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

// lockStore takes an exclusive, non-blocking flock on dir's lock file and
// writes this process's pid into it. While the returned file stays open no
// other opener — another process, or another New in this one — can hold the
// store; the second fails naming the holder's pid. Closing the file releases
// the lock, and a process that dies releases it with its descriptors.
//
// The pid is best effort: a holder writes it just after it takes the lock,
// so an opener refused in between finds no pid (and says so) or the previous
// holder's.
func lockStore(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		raw, _ := io.ReadAll(f) // the pid only names the holder in the error
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			holder := "another process"
			if pid := strings.TrimSpace(string(raw)); pid != "" {
				holder = "pid " + pid
			}
			return nil, fmt.Errorf("stream: store %s is held by %s", dir, holder)
		}
		return nil, fmt.Errorf("stream: lock store %s: %w", dir, err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.WriteString(strconv.Itoa(os.Getpid()) + "\n"); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}
