package albireo

import (
	"sync"
	"sync/atomic"

	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// maxSeedMemo caps the process-wide seed memo below. An entry holds 8
// bytes per canonical seed (about 500 seeds cover a resnet18 pass), but
// exploration runs build hundreds of architecture variants; past the cap
// the memo resets rather than growing without bound.
const maxSeedMemo = 4096

// seedKey names one (architecture, layer shape) pair: the canonical seeds
// depend on nothing else.
type seedKey struct{ arch, shape uint64 }

// seedEntry memoizes one pair's canonical seed fingerprints.
type seedEntry struct {
	once sync.Once
	fps  []uint64
	// pending holds the seeds built to take fingerprints from until a
	// search takes them, so a pair's first search builds them only once.
	pending atomic.Pointer[[]*mapping.Mapping]
}

// seedMemo maps every pair seen to its canonical seed fingerprints. A
// repeat evaluation keys its cached search with them and never builds the
// seeds unless the search has to run.
var (
	seedMemoMu sync.Mutex
	seedMemo   = map[seedKey]*seedEntry{}
)

// buildSeeds builds a layer's canonical seed list (a variable so tests can
// count the builds).
var buildSeeds = CanonicalMappings

// canonicalSeeds returns the layer's canonical mappings on the session's
// architecture as lazy mapper seeds. On a pair's first sight it builds
// them to take their fingerprints and also returns the memo entry, whose
// pending seeds the caller drops once its searches are done.
func canonicalSeeds(sess *mapper.Session, l *workload.Layer) (*mapper.LazySeeds, *seedEntry) {
	key := seedKey{sess.Fingerprint(), l.ShapeFingerprint()}
	seedMemoMu.Lock()
	e := seedMemo[key]
	if e == nil {
		if len(seedMemo) >= maxSeedMemo {
			seedMemo = make(map[seedKey]*seedEntry)
		}
		e = &seedEntry{}
		seedMemo[key] = e
	}
	seedMemoMu.Unlock()

	a := sess.Engine().Arch()
	var first *seedEntry
	e.once.Do(func() {
		seeds := buildSeeds(a, l)
		e.fps = make([]uint64, len(seeds))
		for i, m := range seeds {
			e.fps[i] = m.Fingerprint()
		}
		e.pending.Store(&seeds)
		first = e
	})
	return &mapper.LazySeeds{
		Fingerprints: e.fps,
		Build: func() []*mapping.Mapping {
			if seeds := e.pending.Swap(nil); seeds != nil {
				return *seeds
			}
			return buildSeeds(a, l)
		},
	}, first
}
