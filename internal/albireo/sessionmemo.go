package albireo

import (
	"fmt"
	"sync"

	"photoloop/internal/mapper"
)

// maxSessionMemo caps the process-wide session memo below, as
// maxSeedMemo caps the seed memo: exploration runs build hundreds of
// architecture variants, and past the cap the memo resets rather than
// growing without bound. A session holds about 19 KB, so the memo stays
// near 1 MB; a service's few architectures fit many times over.
const maxSessionMemo = 64

// sessionEntry memoizes one configuration's mapper session.
type sessionEntry struct {
	once sync.Once
	sess *mapper.Session
	err  error
}

// sessionMemo maps every configuration evaluated to its mapper session,
// so a repeat evaluation neither builds the architecture nor resolves its
// engine again.
var (
	sessionMemoMu sync.Mutex
	sessionMemo   = map[Config]*sessionEntry{}
)

// newSession builds a configuration's architecture and its mapper session
// (a variable so tests can count the builds).
var newSession = func(cfg Config) (*mapper.Session, error) {
	a, err := cfg.Build()
	if err != nil {
		return nil, fmt.Errorf("albireo: building arch: %w", err)
	}
	s, err := mapper.NewSession(a)
	if err != nil {
		return nil, fmt.Errorf("albireo: preparing mapper: %w", err)
	}
	return s, nil
}

// SessionFor returns the mapper session of the configuration's
// architecture, built once per configuration and shared process-wide.
// The architecture is sess.Engine().Arch(); callers must not modify it.
// Concurrent first calls for one configuration share a single build.
func SessionFor(cfg Config) (*mapper.Session, error) {
	sessionMemoMu.Lock()
	e := sessionMemo[cfg]
	if e == nil {
		if len(sessionMemo) >= maxSessionMemo {
			sessionMemo = make(map[Config]*sessionEntry)
		}
		e = &sessionEntry{}
		sessionMemo[cfg] = e
	}
	sessionMemoMu.Unlock()
	e.once.Do(func() { e.sess, e.err = newSession(cfg) })
	return e.sess, e.err
}
