// Disk-backed content-addressed store for the simulation service: compiled
// images and run-result documents, keyed by core.CompileKey / core.JobKey.
// Entries are plain files (one per key) plus a JSON index carrying LRU
// recency, so the cache survives daemon restarts and is shareable between
// anything that respects the key contract. The store is bounded by total
// bytes; inserting past the cap evicts least-recently-used entries.
package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Kind namespaces store entries by payload type.
type Kind string

const (
	// KindCompile entries hold gob-encoded codegen.Result images, keyed
	// by core.CompileKey.
	KindCompile Kind = "compile"
	// KindResult entries hold canonical core.ResultDoc JSON, keyed by
	// core.JobKey.
	KindResult Kind = "result"
)

// DefaultStoreBytes bounds a store when the caller passes maxBytes <= 0.
const DefaultStoreBytes = 1 << 30 // 1 GiB

// storeEntry is one index record.
type storeEntry struct {
	Kind Kind   `json:"kind"`
	Key  string `json:"key"`
	Size int64  `json:"size"`
	// Seq is the LRU clock: higher = more recently used. Persisted with
	// the index so recency survives restarts. Put and Get changes reach
	// the index lazily: on Close, or once flushEvery of them sit
	// unflushed (an unindexed object is re-adopted cold on reopen).
	Seq int64 `json:"seq"`
}

// flushEvery bounds how many index changes (Put insertions, Get recency
// bumps) may sit unflushed. A flush rewrites the whole index, which costs
// more than the change itself; batching keeps it off most requests, and a
// daemon killed uncleanly (kill -9, OOM) loses at most this much recency
// and no objects: OpenStore re-adopts object files the index does not
// name.
const flushEvery = 64

// storeIndex is the on-disk index document.
type storeIndex struct {
	V       int          `json:"v"`
	Seq     int64        `json:"seq"`
	Entries []storeEntry `json:"entries"`
}

// Store is the bounded, persistent content-addressed cache.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	entries  map[string]*storeEntry // indexed by kind/key
	bytes    int64
	seq      int64
	dirty    bool // index has unflushed recency/membership changes
	pending  int  // Put and Get index changes since the last flush

	hits, misses, evictions int64
}

// keyRE guards against path injection: keys are hex digests.
var keyRE = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

func entryID(kind Kind, key string) string { return string(kind) + "/" + key }

func (s *Store) objPath(kind Kind, key string) string {
	return filepath.Join(s.dir, "obj", string(kind)+"-"+key)
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

// OpenStore opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of payload (<= 0 selects DefaultStoreBytes). An existing store
// is recovered from its index; entries whose files have vanished are
// dropped, and files not covered by the index are re-adopted with cold
// recency, so a torn shutdown loses at worst recency, never correctness.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultStoreBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: map[string]*storeEntry{}}

	var idx storeIndex
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		// A corrupt index is discarded, not fatal: the object scan below
		// re-adopts the files.
		_ = json.Unmarshal(data, &idx)
	}
	for i := range idx.Entries {
		e := idx.Entries[i]
		fi, err := os.Stat(s.objPath(e.Kind, e.Key))
		if err != nil {
			continue // file vanished; drop the record
		}
		e.Size = fi.Size()
		s.entries[entryID(e.Kind, e.Key)] = &e
		s.bytes += e.Size
		if e.Seq > s.seq {
			s.seq = e.Seq
		}
	}

	// Adopt objects the index does not know (torn shutdown after a Put
	// but before a flush). Sorted for deterministic cold-recency order.
	names, err := os.ReadDir(filepath.Join(dir, "obj"))
	if err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	var adopted []string
	for _, de := range names {
		name := de.Name()
		kind, key, ok := strings.Cut(name, "-")
		if !ok || !keyRE.MatchString(key) {
			continue
		}
		if Kind(kind) != KindCompile && Kind(kind) != KindResult {
			continue
		}
		if _, known := s.entries[entryID(Kind(kind), key)]; !known {
			adopted = append(adopted, name)
		}
	}
	sort.Strings(adopted)
	for _, name := range adopted {
		kind, key, _ := strings.Cut(name, "-")
		fi, err := os.Stat(filepath.Join(dir, "obj", name))
		if err != nil {
			continue
		}
		s.seq++
		s.entries[entryID(Kind(kind), key)] = &storeEntry{
			Kind: Kind(kind), Key: key, Size: fi.Size(), Seq: s.seq}
		s.bytes += fi.Size()
		s.dirty = true
	}

	s.evictOverLocked()
	if err := s.flushLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// Get returns the payload for (kind, key) and whether it was present,
// bumping the entry's recency. A payload whose file cannot be read is
// treated as absent and dropped.
func (s *Store) Get(kind Kind, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryID(kind, key)]
	if !ok {
		s.misses++
		return nil, false
	}
	data, err := os.ReadFile(s.objPath(kind, key))
	if err != nil {
		s.dropLocked(e)
		s.misses++
		return nil, false
	}
	s.seq++
	e.Seq = s.seq
	s.hits++
	s.changedLocked()
	return data, true
}

// Contains reports presence without reading the payload or bumping
// recency.
func (s *Store) Contains(kind Kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[entryID(kind, key)]
	return ok
}

// Put inserts (or refreshes) a payload; the index records it lazily (see
// flushEvery). Entries
// larger than the whole store bound are rejected silently (cache, not
// storage). The content-addressed contract makes overwrites idempotent:
// same key, same bytes.
func (s *Store) Put(kind Kind, key string, data []byte) error {
	if !keyRE.MatchString(key) {
		return fmt.Errorf("service: store key %q is not a content hash", key)
	}
	if int64(len(data)) > s.maxBytes {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	path := s.objPath(kind, key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: store put: %w", err)
	}

	id := entryID(kind, key)
	if old, ok := s.entries[id]; ok {
		s.bytes -= old.Size
	}
	s.seq++
	s.entries[id] = &storeEntry{Kind: kind, Key: key, Size: int64(len(data)), Seq: s.seq}
	s.bytes += int64(len(data))
	s.evictOverLocked()
	s.changedLocked()
	return nil
}

// changedLocked marks the index dirty and flushes it once flushEvery
// changes are pending. The flush is best effort: a failure leaves the
// index dirty for the next threshold crossing or Close to retry, and the
// object itself is already safe on disk. Callers hold mu.
func (s *Store) changedLocked() {
	s.dirty = true
	if s.pending++; s.pending >= flushEvery {
		_ = s.flushLocked()
	}
}

// dropLocked removes an entry and its file. Callers hold mu.
func (s *Store) dropLocked(e *storeEntry) {
	delete(s.entries, entryID(e.Kind, e.Key))
	s.bytes -= e.Size
	os.Remove(s.objPath(e.Kind, e.Key))
	s.dirty = true
}

// evictOverLocked drops LRU entries until the byte bound holds.
func (s *Store) evictOverLocked() {
	for s.bytes > s.maxBytes && len(s.entries) > 0 {
		var lru *storeEntry
		for _, e := range s.entries {
			if lru == nil || e.Seq < lru.Seq {
				lru = e
			}
		}
		s.dropLocked(lru)
		s.evictions++
	}
}

// flushLocked persists the index (write-temp-then-rename). Callers hold mu.
func (s *Store) flushLocked() error {
	if !s.dirty {
		return nil
	}
	idx := storeIndex{V: 1, Seq: s.seq}
	for _, e := range s.entries {
		idx.Entries = append(idx.Entries, *e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		return idx.Entries[i].Seq < idx.Entries[j].Seq
	})
	data, err := json.MarshalIndent(&idx, "", " ")
	if err != nil {
		return err
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store flush: %w", err)
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: store flush: %w", err)
	}
	s.dirty = false
	s.pending = 0
	return nil
}

// Flush persists any pending index changes (Puts and recency bumps).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

// Close flushes the index; the store must not be used afterwards.
func (s *Store) Close() error { return s.Flush() }

// Len reports the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the resident payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// StoreStats is the store's observable state (GET /stats).
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries: len(s.entries), Bytes: s.bytes, MaxBytes: s.maxBytes,
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
	}
}
