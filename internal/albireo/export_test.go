package albireo

import (
	"sync/atomic"

	"photoloop/internal/arch"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// Test-only exports for the tests in package albireo_test, which import
// presets (itself an importer of this package) to cover every Albireo
// preset.

// LayerConfig is layerConfig.
var LayerConfig = layerConfig

// MaxSeedMemo is maxSeedMemo.
const MaxSeedMemo = maxSeedMemo

// CountSeedBuilds counts the canonical seed lists built from now on; the
// returned stop function ends the count and returns it. Tests using it
// must not run in parallel.
func CountSeedBuilds() (stop func() int64) {
	var n atomic.Int64
	buildSeeds = func(a *arch.Arch, l *workload.Layer) []*mapping.Mapping {
		n.Add(1)
		return CanonicalMappings(a, l)
	}
	return func() int64 {
		buildSeeds = CanonicalMappings
		return n.Load()
	}
}

// ResetSeedMemo empties the seed memo.
func ResetSeedMemo() {
	seedMemoMu.Lock()
	seedMemo = map[seedKey]*seedEntry{}
	seedMemoMu.Unlock()
}

// FillSeedMemo pads the seed memo with placeholder pairs up to its cap.
func FillSeedMemo() {
	seedMemoMu.Lock()
	for i := uint64(0); len(seedMemo) < maxSeedMemo; i++ {
		seedMemo[seedKey{arch: i, shape: ^i}] = &seedEntry{}
	}
	seedMemoMu.Unlock()
}

// SeedMemoLen returns the number of pairs in the seed memo.
func SeedMemoLen() int {
	seedMemoMu.Lock()
	defer seedMemoMu.Unlock()
	return len(seedMemo)
}

// SeedFingerprints returns the memoized canonical seed fingerprints of the
// layer on the session's architecture, dropping any seeds built for them.
func SeedFingerprints(s *mapper.Session, l *workload.Layer) []uint64 {
	lazy, first := canonicalSeeds(s, l)
	if first != nil {
		first.pending.Store(nil)
	}
	return lazy.Fingerprints
}

// SeedsPending returns how many memo entries still hold the seeds built
// to fingerprint them.
func SeedsPending() int {
	seedMemoMu.Lock()
	defer seedMemoMu.Unlock()
	n := 0
	for _, e := range seedMemo {
		if e.pending.Load() != nil {
			n++
		}
	}
	return n
}

// MaxSessionMemo is maxSessionMemo.
const MaxSessionMemo = maxSessionMemo

// CountSessionBuilds counts the architectures and mapper sessions the
// session memo builds from now on (one of each per build); the returned
// stop function ends the count and returns it. Tests using it must not
// run in parallel.
func CountSessionBuilds() (stop func() int64) {
	var n atomic.Int64
	build := newSession
	newSession = func(cfg Config) (*mapper.Session, error) {
		n.Add(1)
		return build(cfg)
	}
	return func() int64 {
		newSession = build
		return n.Load()
	}
}

// ResetSessionMemo empties the session memo.
func ResetSessionMemo() {
	sessionMemoMu.Lock()
	sessionMemo = map[Config]*sessionEntry{}
	sessionMemoMu.Unlock()
}

// FillSessionMemo pads the session memo with placeholder configurations
// up to its cap.
func FillSessionMemo() {
	sessionMemoMu.Lock()
	for i := 0; len(sessionMemo) < maxSessionMemo; i++ {
		sessionMemo[Config{Clusters: -1 - i}] = &sessionEntry{}
	}
	sessionMemoMu.Unlock()
}

// SessionMemoLen returns the number of configurations in the session memo.
func SessionMemoLen() int {
	sessionMemoMu.Lock()
	defer sessionMemoMu.Unlock()
	return len(sessionMemo)
}
