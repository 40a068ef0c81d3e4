//go:build !unix

package stream

import "os"

// lockStore is a no-op where the platform has no flock: a named store is
// guarded across processes on unix builds only.
func lockStore(string) (*os.File, error) { return nil, nil }
