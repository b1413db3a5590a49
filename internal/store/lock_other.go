//go:build !unix

package store

import (
	"fmt"
	"os"
	"strconv"
)

// acquireLock takes the one-writer lock by creating the lock file
// exclusively, stamped with our pid; release removes it. Without flock a
// crashed writer's file stays and must be removed by hand — which beats
// breaking a live writer's lock.
func acquireLock(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if os.IsExist(err) {
		buf, _ := os.ReadFile(path)
		return nil, lockedError(path, buf)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	_, err = f.WriteString(strconv.Itoa(os.Getpid()) + "\n")
	if cerr := f.Close(); err != nil || cerr != nil {
		os.Remove(path)
		return nil, fmt.Errorf("store: writing lock %s: %v %v", path, err, cerr)
	}
	return func() { os.Remove(path) }, nil
}

// lockHeld reports whether the lock file at path exists.
func lockHeld(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
