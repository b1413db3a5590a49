//go:build unix

package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"syscall"
	"time"
)

// acquireLock takes the one-writer lock: an exclusive flock on the lock
// file, which the kernel drops when the holder exits however it exits.
// No pid is checked, so neither a restart under the old pid (PID 1 in a
// container) nor pid reuse can keep a crashed writer's store locked; the
// file records the pid for diagnostics only. It is never unlinked — that
// would let two processes lock two inodes — and release empties it.
func acquireLock(path string) (release func(), err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A Held probe holds the lock for microseconds, a writer for its
	// lifetime: retry briefly before calling the store held.
	for try := 1; ; try++ {
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		if !errors.Is(err, syscall.EWOULDBLOCK) || try == 3 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err == nil {
		if err = f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(strconv.Itoa(os.Getpid())+"\n"), 0)
		}
		if err == nil {
			return func() { f.Truncate(0); f.Close() }, nil
		}
	}
	buf, _ := io.ReadAll(f)
	f.Close()
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return nil, lockedError(path, buf)
	}
	return nil, fmt.Errorf("store: locking %s: %w", path, err)
}

// lockHeld reports whether a live process holds the lock at path, by
// taking and at once dropping a shared flock.
func lockHeld(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return errors.Is(syscall.Flock(int(f.Fd()), syscall.LOCK_SH|syscall.LOCK_NB), syscall.EWOULDBLOCK)
}
