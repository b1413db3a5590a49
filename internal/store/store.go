// Package store is the durable tier of the search cache: a
// content-addressed, append-only on-disk result store keyed by the
// mapper's (architecture, layer shape, options) fingerprints. It
// implements mapper.Persister, so a mapper.Cache backed by a Store serves
// every search any prior process completed — restarts, resumed jobs and
// repeated queries warm-start instead of recomputing.
//
// Layout: a store directory holds one append-only log of checksummed
// records (photoloop-store.log) with exactly one writer. Open claims the
// writer role through an OS file lock on photoloop-store.log.lock, which
// the kernel releases when the writer exits, crashed or not; while a live
// process holds it, Open fails with a diagnostic naming the pid the lock
// file records. Other processes reach the results through
// the writer — a shard coordinator serves them to remote workers over
// HTTP — never through the directory.
//
// Each record frames a key (three fingerprints) and a versioned binary
// payload (EncodeBest) behind a CRC32; records are never rewritten. Open
// scans the log into an in-memory index; a repeated key keeps its first
// record (the keys are content addresses — equal keys carry bit-identical
// payloads, so any copy serves). A framing or checksum violation
// truncates the log at the last intact record: a torn tail from a crash
// costs the torn records only. A file whose header is not ours is an
// error, never overwritten: pointing the store at the wrong directory
// must not destroy foreign data.
//
// Integrity over availability: a record that cannot prove itself (bad
// CRC, bad frame, bad codec version) is a miss and the search recomputes
// — corruption can cost time, never correctness.
package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"photoloop/internal/mapper"
)

// primaryName is the log's file name.
const primaryName = "photoloop-store.log"

// lockSuffix names the log's lock file. The file holds the owning pid in
// text, for diagnostics only (see acquireLock).
const lockSuffix = ".lock"

// logMagic opens the log; a file that exists but does not start with it
// is not ours and Open refuses to touch it.
var logMagic = []byte("PHOTOLOOPSTORE1\n")

// recordHeaderLen frames each record: 3 key fingerprints, payload length,
// CRC32 over key+payload.
const recordHeaderLen = 3*8 + 4 + 4

// maxPayloadLen bounds one record's payload — far above any real best
// (a few KB), low enough that a corrupted length cannot drive a huge
// read.
const maxPayloadLen = 64 << 20

// Store is the on-disk result store. It is safe for concurrent use and
// implements mapper.Persister.
type Store struct {
	mu    sync.Mutex
	f     *os.File // the log; nil once closed
	good  int64    // offset after the last verified record: the append point
	index map[mapper.Key]recordRef
	// unlock releases the writer lock; nil once closed.
	unlock func()

	recovered int64 // bytes truncated from the log's tail on Open
	loadFails int64 // records that failed to decode on Load
}

// recordRef locates one record's payload in the log.
type recordRef struct {
	len int32
	off int64
}

// Open opens (creating if needed) the store under dir as its one writer;
// while a live process holds it, Open fails with "store: ... locked by
// pid N". The log is verified and a corrupted tail truncated away (see
// Recovered). A file that is not a photoloop store log is an error, and
// so is a numbered segment (photoloop-store.NNN.log) left by the
// multi-writer layout of earlier versions — its records would otherwise
// go unread without a word. A numbered segment holding only the header
// (no records) is ignored.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		// The pattern is constant and well formed, so Match cannot fail.
		legacy, _ := filepath.Match("photoloop-store.*.log", e.Name())
		if info, err := e.Info(); legacy && err == nil && info.Size() > int64(len(logMagic)) {
			return nil, fmt.Errorf("store: %s is a segment of the older multi-writer layout, which this version does not read; move it out of the store directory (its searches then recompute on demand)",
				filepath.Join(dir, e.Name()))
		}
	}
	unlock, err := acquireLock(filepath.Join(dir, primaryName+lockSuffix))
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, primaryName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		unlock()
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, index: make(map[mapper.Key]recordRef), unlock: unlock}
	if err := s.scan(); err != nil {
		f.Close()
		unlock()
		return nil, err
	}
	return s, nil
}

// Held reports whether a live process holds the store under dir as its
// writer, and the pid its lock file records (0 if none yet). It creates
// and opens nothing, so it is safe to call on any directory.
func Held(dir string) (pid int, held bool) {
	path := filepath.Join(dir, primaryName+lockSuffix)
	if !lockHeld(path) {
		return 0, false
	}
	buf, _ := os.ReadFile(path)
	return lockPid(buf), true
}

// scan verifies the log into the index. A framing or checksum violation
// truncates the log at the last intact record.
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		if _, err := s.f.WriteAt(logMagic, 0); err != nil {
			return fmt.Errorf("store: writing log header: %w", err)
		}
		s.good = int64(len(logMagic))
		return nil
	}
	header := make([]byte, len(logMagic))
	if _, err := s.f.ReadAt(header, 0); err != nil || string(header) != string(logMagic) {
		return fmt.Errorf("store: %s is not a photoloop result store log (refusing to overwrite)", s.f.Name())
	}
	s.good = int64(len(logMagic))
	off := s.good
	hdr := make([]byte, recordHeaderLen)
	var payload []byte
	br := bufio.NewReader(io.NewSectionReader(s.f, off, info.Size()-off))
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break // clean EOF or torn header
		}
		key := mapper.Key{
			Arch:  binary.LittleEndian.Uint64(hdr[0:]),
			Layer: binary.LittleEndian.Uint64(hdr[8:]),
			Opts:  binary.LittleEndian.Uint64(hdr[16:]),
		}
		plen := binary.LittleEndian.Uint32(hdr[24:])
		want := binary.LittleEndian.Uint32(hdr[28:])
		if plen > maxPayloadLen {
			break
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if recordCRC(hdr[:28], payload) != want {
			break
		}
		off += recordHeaderLen + int64(plen)
		// First write wins: a repeated key keeps its earlier record.
		if _, dup := s.index[key]; !dup {
			s.index[key] = recordRef{off: off - int64(plen), len: int32(plen)}
		}
		s.good = off
	}
	if s.good < info.Size() {
		s.recovered = info.Size() - s.good
		if err := s.f.Truncate(s.good); err != nil {
			return fmt.Errorf("store: truncating corrupted tail: %w", err)
		}
	}
	return nil
}

// recordCRC checksums a record: the header's key+length bytes plus the
// payload, so a frame whose length or key was torn fails like a torn
// payload.
func recordCRC(keyAndLen, payload []byte) uint32 {
	crc := crc32.ChecksumIEEE(keyAndLen)
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// Close closes the log and releases the writer lock. A second Close is a
// no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	s.unlock()
	s.unlock = nil
	return err
}

// Len returns the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Segments returns how many log files the store spans. It is always 1:
// the store has one log and one writer.
func (s *Store) Segments() int { return 1 }

// Recovered returns how many corrupted bytes Open truncated from the
// log's tail (0 for a clean log).
func (s *Store) Recovered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Has reports whether the store holds the key.
func (s *Store) Has(k mapper.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// Keys returns a snapshot of every key in the store, in unspecified
// order.
func (s *Store) Keys() []mapper.Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]mapper.Key, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	return keys
}

// Digest builds a bloom KeyDigest over the store's keys — the warm-key
// summary a coordinator serves so remote workers skip searches already
// solved. Digest construction is order-independent,
// so equal key sets encode byte-identically.
func (s *Store) Digest() *KeyDigest {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := NewKeyDigest(len(s.index))
	for k := range s.index {
		d.Add(k)
	}
	return d
}

// Load implements mapper.Persister: it returns the stored best for the
// key, or false. A record that fails to decode (impossible after a clean
// scan unless a file was modified underneath us) is a miss.
func (s *Store) Load(k mapper.Key) (*mapper.Best, bool) {
	s.mu.Lock()
	ref, ok := s.index[k]
	f := s.f
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	payload := make([]byte, ref.len)
	if _, err := f.ReadAt(payload, ref.off); err != nil {
		s.noteLoadFail()
		return nil, false
	}
	b, err := DecodeBest(payload)
	if err != nil {
		s.noteLoadFail()
		return nil, false
	}
	return b, true
}

func (s *Store) noteLoadFail() {
	s.mu.Lock()
	s.loadFails++
	s.mu.Unlock()
}

// Store implements mapper.Persister: it appends the best under the key to
// the log. A key already present is left alone (the store is content
// addressed — equal keys mean bit-identical results, so the first write is
// as good as any).
func (s *Store) Store(k mapper.Key, b *mapper.Best) error {
	payload := EncodeBest(b)
	if len(payload) > maxPayloadLen {
		return fmt.Errorf("store: record payload %d bytes exceeds cap", len(payload))
	}
	rec := make([]byte, recordHeaderLen, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint64(rec[0:], k.Arch)
	binary.LittleEndian.PutUint64(rec[8:], k.Layer)
	binary.LittleEndian.PutUint64(rec[16:], k.Opts)
	binary.LittleEndian.PutUint32(rec[24:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[28:], recordCRC(rec[:28], payload))
	rec = append(rec, payload...)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[k]; ok {
		return nil
	}
	if _, err := s.f.WriteAt(rec, s.good); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	s.index[k] = recordRef{off: s.good + recordHeaderLen, len: int32(len(payload))}
	s.good += int64(len(rec))
	return nil
}
