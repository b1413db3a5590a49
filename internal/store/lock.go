package store

import (
	"fmt"
	"strconv"
	"strings"
)

// lockedError is the diagnostic for a store another process holds.
func lockedError(path string, contents []byte) error {
	if pid := lockPid(contents); pid > 0 {
		return fmt.Errorf("store: %s is locked by pid %d", path, pid)
	}
	return fmt.Errorf("store: %s is locked by unknown pid", path) // not yet stamped
}

// lockPid parses the pid a lock file records, or returns 0.
func lockPid(contents []byte) int {
	pid, _ := strconv.Atoi(strings.TrimSpace(string(contents)))
	return pid
}
