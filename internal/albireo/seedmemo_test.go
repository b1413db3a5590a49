package albireo_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// keyRecorder is a Persister that records every key the cache looks up
// and serves a placeholder for it, so a network evaluation reports its
// search keys without searching.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[mapper.Key]bool
}

func (r *keyRecorder) Load(k mapper.Key) (*mapper.Best, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys[k] = true
	return &mapper.Best{Mapping: &mapping.Mapping{}, Result: &model.Result{}}, true
}

func (r *keyRecorder) Store(mapper.Key, *mapper.Best) error { return nil }

// recordKeys returns a cache over a fresh keyRecorder.
func recordKeys() (*mapper.Cache, *keyRecorder) {
	r := &keyRecorder{keys: map[mapper.Key]bool{}}
	c := mapper.NewCache()
	c.SetPersister(r)
	return c, r
}

// memStore is an in-memory Persister.
type memStore struct {
	mu sync.Mutex
	m  map[mapper.Key]*mapper.Best
}

func (s *memStore) Load(k mapper.Key) (*mapper.Best, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[k]
	return b, ok
}

func (s *memStore) Store(k mapper.Key, b *mapper.Best) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[k] = b
	return nil
}

// eagerKeys returns the cache keys of the network's searches with every
// layer's canonical seeds built up front in front of the caller's seeds,
// as EvalNetwork keyed them before the seeds were memoized.
func eagerKeys(t *testing.T, cfg albireo.Config, net workload.Network, opts albireo.NetOptions) map[mapper.Key]bool {
	t.Helper()
	work := net.WithBatch(opts.Batch)
	cache, rec := recordKeys()
	sessions := map[workload.TensorSet]*mapper.Session{}
	for i := range work.Layers {
		layer := &work.Layers[i]
		lcfg := albireo.LayerConfig(cfg, &work, opts, i)
		sess := sessions[lcfg.DRAMKeeps]
		if sess == nil {
			a, err := lcfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			if sess, err = mapper.NewSession(a); err != nil {
				t.Fatal(err)
			}
			sessions[lcfg.DRAMKeeps] = sess
		}
		mopts := opts.Mapper
		mopts.Seeds = append(albireo.CanonicalMappings(sess.Engine().Arch(), layer), mopts.Seeds...)
		if opts.WarmStarts != nil {
			mopts.WarmStarts = slices.Concat(opts.WarmStarts[layer.ShapeFingerprint()], mopts.WarmStarts)
		}
		mopts.Cache = cache
		if _, err := sess.Search(layer, mopts); err != nil {
			t.Fatal(err)
		}
	}
	return rec.keys
}

// lazyKeys returns the cache keys EvalNetwork searches the network under.
func lazyKeys(t *testing.T, cfg albireo.Config, net workload.Network, opts albireo.NetOptions) map[mapper.Key]bool {
	t.Helper()
	cache, rec := recordKeys()
	opts.Mapper.Cache = cache
	if _, err := albireo.EvalNetwork(cfg, net, opts); err != nil {
		t.Fatal(err)
	}
	return rec.keys
}

// TestLazySeedKeysMatchEagerSeeds pins the cache keys: EvalNetwork keys
// each search by memoized seed fingerprints, and the key must equal the
// one eagerly built canonical seeds (followed by the caller's own seeds
// and warm starts) give, both on a pair's first sight and from the memo.
// Stores written before the memo keep serving warm hits only if so.
func TestLazySeedKeysMatchEagerSeeds(t *testing.T) {
	albireo.ResetSeedMemo()
	for _, p := range presets.All() {
		cfg, ok := p.Albireo()
		if !ok {
			continue
		}
		for _, e := range workload.ZooEntries() {
			net := e.Build(1)
			a, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			extra := albireo.CanonicalMappings(a, &net.Layers[len(net.Layers)-1])
			for _, batch := range []int{1, 4} {
				for _, fused := range []bool{false, true} {
					opts := albireo.NetOptions{Batch: batch, Fused: fused,
						Mapper: mapper.Options{Budget: 50, Seed: 3, Workers: 2}}
					if (batch == 4) != fused {
						// Caller seeds after the canonical ones, and warm
						// starts from both sources.
						opts.Mapper.Seeds = extra[:1]
						opts.Mapper.WarmStarts = extra[len(extra)-1:]
						opts.WarmStarts = map[uint64][]*mapping.Mapping{
							net.Layers[0].ShapeFingerprint(): extra,
						}
					}
					name := fmt.Sprintf("%s/%s/batch=%d/fused=%v", p.Name, e.Name, batch, fused)
					want := eagerKeys(t, cfg, net, opts)
					for _, pass := range []string{"first sight", "memoized"} {
						if got := lazyKeys(t, cfg, net, opts); !reflect.DeepEqual(got, want) {
							t.Errorf("%s (%s): %d lazy keys != %d eager keys", name, pass, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestRepeatEvalNetworkBuildsNoSeeds: a repeat evaluation served by the
// cache's memory tier, or by a fresh cache's persister, builds no
// canonical seed list, and a pair's first search builds its seeds once.
// Seeds built only to fingerprint a pair the store then serves are not
// kept.
func TestRepeatEvalNetworkBuildsNoSeeds(t *testing.T) {
	albireo.ResetSeedMemo()
	cfg := albireo.Default(albireo.Conservative)
	net := workload.ResNet18(1)
	store := &memStore{m: map[mapper.Key]*mapper.Best{}}
	cache := mapper.NewCache()
	cache.SetPersister(store)
	opts := albireo.NetOptions{Batch: 1, Mapper: mapper.Options{Budget: 60, Seed: 1, Workers: 1, Cache: cache}}

	stop := albireo.CountSeedBuilds()
	first, err := albireo.EvalNetwork(cfg, net, opts)
	builds := stop()
	if err != nil {
		t.Fatal(err)
	}
	_, misses := cache.Stats()
	if misses == 0 || builds != misses {
		t.Fatalf("first evaluation: %d seed builds for %d searches, want one each", builds, misses)
	}

	check := func(tier string, c *mapper.Cache) {
		t.Helper()
		opts.Mapper.Cache = c
		stop := albireo.CountSeedBuilds()
		again, err := albireo.EvalNetwork(cfg, net, opts)
		if n := stop(); n != 0 {
			t.Errorf("%s hit: %d canonical seed lists built, want 0", tier, n)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Total, first.Total) {
			t.Errorf("%s hit: network total differs from the first evaluation", tier)
		}
	}
	check("memory", cache)
	if ts := cache.TierStats(); ts.Misses != misses {
		t.Errorf("memory tier: %d misses after the repeat, want %d", ts.Misses, misses)
	}
	fresh := mapper.NewCache()
	fresh.SetPersister(store)
	check("disk", fresh)
	if ts := fresh.TierStats(); ts.Misses != 0 || ts.DiskHits != misses {
		t.Errorf("disk tier: %+v, want %d disk hits and no misses", ts, misses)
	}

	// A fresh process warm-starting from the store: every pair is new to
	// the memo, so its seeds are built once for their fingerprints, and
	// dropped once the disk tier has served the search.
	albireo.ResetSeedMemo()
	fresh = mapper.NewCache()
	fresh.SetPersister(store)
	opts.Mapper.Cache = fresh
	stop = albireo.CountSeedBuilds()
	_, err = albireo.EvalNetwork(cfg, net, opts)
	if n := stop(); n != misses {
		t.Errorf("disk hit on first sight: %d seed builds for %d pairs", n, misses)
	}
	if err != nil {
		t.Fatal(err)
	}
	if n := albireo.SeedsPending(); n != 0 {
		t.Errorf("%d memo entries still hold seeds no search took", n)
	}
}

// TestConcurrentFirstSightSharesSeedBuild: goroutines sending the same
// first-seen request share each pair's one search and one seed build, and
// all get the same result.
func TestConcurrentFirstSightSharesSeedBuild(t *testing.T) {
	albireo.ResetSeedMemo()
	cfg := albireo.Default(albireo.Conservative)
	net := workload.ResNet18(1)
	cache := mapper.NewCache()
	opts := albireo.NetOptions{Batch: 1, Mapper: mapper.Options{Budget: 40, Seed: 2, Workers: 1, Cache: cache}}

	const n = 6
	results := make([]*albireo.NetResult, n)
	errs := make([]error, n)
	stop := albireo.CountSeedBuilds()
	var wg sync.WaitGroup
	for g := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g], errs[g] = albireo.EvalNetwork(cfg, net, opts)
		}()
	}
	wg.Wait()
	builds := stop()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	_, misses := cache.Stats()
	distinct := map[uint64]bool{}
	for i := range net.Layers {
		distinct[net.Layers[i].ShapeFingerprint()] = true
	}
	if misses != int64(len(distinct)) || builds != misses {
		t.Errorf("%d searches and %d seed builds for %d distinct layer shapes", misses, builds, len(distinct))
	}
	for g := 1; g < n; g++ {
		if !reflect.DeepEqual(results[g].Total, results[0].Total) {
			t.Errorf("caller %d's network total differs from caller 0's", g)
		}
	}
}

// TestSeedMemoResetRebuildsFingerprints: past its cap the seed memo
// resets, and a pair seen again rebuilds the same fingerprints.
func TestSeedMemoResetRebuildsFingerprints(t *testing.T) {
	albireo.ResetSeedMemo()
	a, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := mapper.NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	net := workload.ResNet18(1)
	l, other := &net.Layers[0], &net.Layers[len(net.Layers)-1]
	var want []uint64
	for _, m := range albireo.CanonicalMappings(a, l) {
		want = append(want, m.Fingerprint())
	}

	stop := albireo.CountSeedBuilds()
	first := albireo.SeedFingerprints(sess, l)
	memo := albireo.SeedFingerprints(sess, l)
	if n := stop(); n != 1 {
		t.Errorf("first sight and a memo hit built %d seed lists, want 1", n)
	}
	albireo.FillSeedMemo()
	if n := albireo.SeedMemoLen(); n != albireo.MaxSeedMemo {
		t.Fatalf("filled memo holds %d pairs, want %d", n, albireo.MaxSeedMemo)
	}
	albireo.SeedFingerprints(sess, other) // a new pair at the cap resets
	if n := albireo.SeedMemoLen(); n != 1 {
		t.Fatalf("memo holds %d pairs after the reset, want 1", n)
	}
	stop = albireo.CountSeedBuilds()
	rebuilt := albireo.SeedFingerprints(sess, l)
	if n := stop(); n != 1 {
		t.Errorf("a pair dropped by the reset built %d seed lists, want 1", n)
	}
	for name, got := range map[string][]uint64{"first sight": first, "memo hit": memo, "after reset": rebuilt} {
		if !slices.Equal(got, want) {
			t.Errorf("%s: fingerprints differ from the canonical mappings'", name)
		}
	}
}

// repeatAllocBound caps the allocations of a repeat resnet18 evaluation
// served from the cache's memory tier: 412 measured (GOMAXPROCS 1, 2 and
// 8 alike), plus headroom. Building the canonical seeds on every hit made
// it 7526, and building the architecture and its mapper session 764.
const repeatAllocBound = 500

// TestEvalNetworkRepeatAllocs gates the allocations of a repeat network
// evaluation: a memory-tier hit on every layer builds no seeds.
func TestEvalNetworkRepeatAllocs(t *testing.T) {
	cfg := albireo.Default(albireo.Conservative)
	net := workload.ResNet18(1)
	opts := albireo.NetOptions{Batch: 1, Mapper: mapper.Options{Budget: 60, Seed: 1, Workers: 1, Cache: mapper.NewCache()}}
	if _, err := albireo.EvalNetwork(cfg, net, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := albireo.EvalNetwork(cfg, net, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per repeat evaluation", allocs)
	if allocs > repeatAllocBound {
		t.Errorf("repeat evaluation: %.0f allocs, bound %d", allocs, repeatAllocBound)
	}
}

// BenchmarkRepeatEvalNetwork measures a repeat resnet18 evaluation served
// from the cache's memory tier: the per-request cost of a repeat /v1/eval.
func BenchmarkRepeatEvalNetwork(b *testing.B) {
	cfg := albireo.Default(albireo.Conservative)
	net := workload.ResNet18(1)
	opts := albireo.NetOptions{Batch: 1, Mapper: mapper.Options{Budget: 60, Seed: 1, Workers: 1, Cache: mapper.NewCache()}}
	if _, err := albireo.EvalNetwork(cfg, net, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := albireo.EvalNetwork(cfg, net, opts); err != nil {
			b.Fatal(err)
		}
	}
}
