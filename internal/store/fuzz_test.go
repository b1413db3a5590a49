package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"photoloop/internal/mapper"
)

// FuzzDecodeBest drives arbitrary bytes through the store's payload
// decoder. The decoder must never panic, and any payload it accepts must
// re-encode to exactly the input bytes — the codec has one canonical form
// per value, so a successful decode proves the record is a genuine
// EncodeBest output.
//
// Seed corpus: testdata/fuzz/FuzzDecodeBest (valid encodings of
// randomized structures, regenerated by TestWriteFuzzCorpus with
// UPDATE_FUZZ_CORPUS=1) plus the inline seeds below.
func FuzzDecodeBest(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4; i++ {
		f.Add(EncodeBest(randomBest(rng)))
	}
	f.Add([]byte{})
	f.Add([]byte{codecVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeBest(data)
		if err != nil {
			return
		}
		if again := EncodeBest(b); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical payload: %d bytes in, %d bytes re-encoded", len(data), len(again))
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzDecodeBest when UPDATE_FUZZ_CORPUS=1 is set;
// otherwise it verifies the committed seeds still decode.
func TestWriteFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var seeds [][]byte
	for i := 0; i < 4; i++ {
		seeds = append(seeds, EncodeBest(randomBest(rng)))
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeBest")
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
	for i, s := range seeds {
		if _, err := DecodeBest(s); err != nil {
			t.Fatalf("seed %d no longer decodes: %v", i, err)
		}
	}
}

// FuzzOpenSegment writes arbitrary bytes as the store's log and opens
// it. Open must never panic. It either refuses the file (a header that
// is not ours), leaving it untouched, or succeeds; then the log keeps its
// bytes up to the last intact record, Recovered reports exactly the bytes
// cut, and the store is fully writable — a fresh Store/Load round-trips,
// also across a reopen.
//
// Seed corpus: testdata/fuzz/FuzzOpenSegment (regenerated by
// TestWriteOpenSegmentFuzzCorpus with UPDATE_FUZZ_CORPUS=1) plus the
// inline seeds below.
func FuzzOpenSegment(f *testing.F) {
	for _, seed := range openSegmentSeeds(f) {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, primaryName)
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused log modified (%d -> %d bytes, %v)", len(data), len(after), rerr)
			}
			return
		}
		defer st.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			if !bytes.Equal(after, logMagic) || st.Recovered() != 0 {
				t.Fatalf("empty log opened as %q, recovered %d", after, st.Recovered())
			}
		} else if !bytes.HasPrefix(data, after) || st.Recovered() != int64(len(data)-len(after)) {
			t.Fatalf("log cut from %d to %d bytes (prefix kept: %v), Recovered() = %d",
				len(data), len(after), bytes.HasPrefix(data, after), st.Recovered())
		}
		k := mapperKey(rand.New(rand.NewSource(1)))
		if st.Has(k) {
			return // the input already holds the probe key
		}
		b := randomBest(rand.New(rand.NewSource(2)))
		if err := st.Store(k, b); err != nil {
			t.Fatalf("store not writable after opening fuzzed log: %v", err)
		}
		if got, ok := st.Load(k); !ok || !bytes.Equal(EncodeBest(got), EncodeBest(b)) {
			t.Fatal("fresh record not served back intact")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopening the recovered log: %v", err)
		}
		defer again.Close()
		if again.Recovered() != 0 {
			t.Fatalf("recovered log lost %d more bytes on reopen", again.Recovered())
		}
		if got, ok := again.Load(k); !ok || !bytes.Equal(EncodeBest(got), EncodeBest(b)) {
			t.Fatal("fresh record not served back after reopen")
		}
	})
}

// openSegmentSeeds builds the FuzzOpenSegment seeds: a valid three-record
// log, the same log with a torn tail and with a flipped bit, a header
// alone, and a file that is not a store log.
func openSegmentSeeds(tb testing.TB) [][]byte {
	dir := tb.TempDir()
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3; i++ {
		if err := st.Store(mapperKey(rng), randomBest(rng)); err != nil {
			tb.Fatal(err)
		}
	}
	st.Close()
	whole, err := os.ReadFile(filepath.Join(dir, primaryName))
	if err != nil {
		tb.Fatal(err)
	}
	flipped := append([]byte{}, whole...)
	flipped[len(flipped)/2] ^= 0x40
	return [][]byte{
		whole,
		whole[:len(whole)-5],
		flipped,
		append([]byte{}, logMagic...),
		[]byte("not a store log at all"),
	}
}

// TestWriteOpenSegmentFuzzCorpus regenerates testdata/fuzz/FuzzOpenSegment
// under UPDATE_FUZZ_CORPUS=1; otherwise it verifies the committed corpus
// is present.
func TestWriteOpenSegmentFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzOpenSegment")
	if os.Getenv("UPDATE_FUZZ_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
		for i, s := range openSegmentSeeds(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d", i)), []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
		t.Fatalf("seed corpus missing (rerun with UPDATE_FUZZ_CORPUS=1): %v", err)
	}
}

func mapperKey(rng *rand.Rand) mapper.Key {
	return mapper.Key{Arch: rng.Uint64(), Layer: rng.Uint64(), Opts: rng.Uint64()}
}
