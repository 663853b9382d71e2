// Package store is a disk-backed content-addressed blob store: the
// persistent second tier under the engine's in-memory result cache.
//
// Layout is two-level hash-prefix directories (dir/ab/cdef...) keyed by
// 32-byte content hashes. Writes go through a temp file in the target
// subdirectory followed by an atomic rename, so a crash mid-write
// leaves either the old entry or a stray temp file — never a torn blob
// under a live key; stray temps are swept on Open. The store never
// trusts its contents: readers get raw bytes and decide validity
// themselves (the codec's checksum), and Delete drops entries found
// corrupt. Total size is bounded; exceeding the budget evicts
// least-recently-used entries, with file mtimes as the recency signal
// so recency survives process restarts and is shared between processes.
//
// Concurrency: a Store is safe for concurrent use within a process, and
// the on-disk format is safe across processes — renames are atomic and
// a Get that races an eviction simply misses.
package store

import (
	"container/list"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultMaxBytes bounds a store whose caller passes no budget: 256 MiB.
const DefaultMaxBytes = 256 << 20

const tmpPrefix = ".tmp-"

// Store is one content-addressed cache directory.
type Store struct {
	dir string
	max int64

	mu    sync.Mutex
	total int64
	lru   *list.List               // front = most recently used
	index map[string]*list.Element // hex key -> element
}

type entry struct {
	key  string // hex
	size int64
}

// Open initialises (creating if needed) a store rooted at dir with a
// total size budget of maxBytes (<= 0 means DefaultMaxBytes). Existing
// entries are indexed by mtime so recency carries across processes;
// leftover temp files from crashed writers are removed; entries beyond
// the budget are evicted oldest-first immediately.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		max:   maxBytes,
		lru:   list.New(),
		index: make(map[string]*list.Element),
	}
	type scanned struct {
		key   string
		size  int64
		mtime time.Time
	}
	var found []scanned
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A vanished or unreadable entry is not fatal: skip it.
			return nil
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(path)
			return nil
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return nil
		}
		parts := strings.Split(rel, string(filepath.Separator))
		if len(parts) != 2 || len(parts[0]) != 2 || len(parts[0])+len(parts[1]) != 64 {
			return nil // foreign file; leave it alone
		}
		key := parts[0] + parts[1]
		if _, derr := hex.DecodeString(key); derr != nil {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil
		}
		found = append(found, scanned{key: key, size: info.Size(), mtime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime.Before(found[j].mtime) })
	for _, f := range found { // oldest first: most recent ends up at the front
		el := s.lru.PushFront(&entry{key: f.key, size: f.size})
		s.index[f.key] = el
		s.total += f.size
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key[2:])
}

// Get returns the blob stored under key. The read goes to the
// filesystem even when the key is not in this process's index, so
// entries written by other processes (a warm shared store) are visible;
// a hit refreshes both the in-memory LRU position and the file mtime.
func (s *Store) Get(key [32]byte) ([]byte, bool) {
	hk := hex.EncodeToString(key[:])
	data, err := os.ReadFile(s.path(hk))
	if err != nil {
		s.mu.Lock()
		if el, ok := s.index[hk]; ok { // indexed but unreadable: drop
			s.removeLocked(el)
		}
		s.mu.Unlock()
		return nil, false
	}
	now := time.Now()
	os.Chtimes(s.path(hk), now, now)
	s.mu.Lock()
	if el, ok := s.index[hk]; ok {
		// The file may have changed size since it was indexed (a
		// truncated blob, another process's write): keep total in step.
		e := el.Value.(*entry)
		s.total += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&entry{key: hk, size: int64(len(data))})
		s.index[hk] = el
		s.total += int64(len(data))
		s.evictLocked()
	}
	s.mu.Unlock()
	return data, true
}

// Put stores data under key, overwriting any previous blob, and returns
// the number of entries evicted to stay inside the size budget. The
// write is crash-safe: temp file + atomic rename in the same directory.
func (s *Store) Put(key [32]byte, data []byte) (evicted int, err error) {
	hk := hex.EncodeToString(key[:])
	sub := filepath.Join(s.dir, hk[:2])
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(sub, tmpPrefix+"*")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, err
	}
	if err := os.Rename(tmpName, s.path(hk)); err != nil {
		os.Remove(tmpName)
		return 0, err
	}
	s.mu.Lock()
	if el, ok := s.index[hk]; ok {
		e := el.Value.(*entry)
		s.total += int64(len(data)) - e.size
		e.size = int64(len(data))
		s.lru.MoveToFront(el)
	} else {
		el := s.lru.PushFront(&entry{key: hk, size: int64(len(data))})
		s.index[hk] = el
		s.total += int64(len(data))
	}
	evicted = s.evictLocked()
	s.mu.Unlock()
	return evicted, nil
}

// Delete removes the blob under key (for entries found corrupt).
func (s *Store) Delete(key [32]byte) {
	hk := hex.EncodeToString(key[:])
	s.mu.Lock()
	if el, ok := s.index[hk]; ok {
		s.removeLocked(el)
	} else {
		os.Remove(s.path(hk))
	}
	s.mu.Unlock()
}

// Len returns the number of indexed entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// TotalBytes returns the indexed payload size.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// evictLocked drops least-recently-used entries until the total fits
// the budget. Caller holds s.mu.
func (s *Store) evictLocked() int {
	n := 0
	for s.total > s.max && s.lru.Len() > 0 {
		s.removeLocked(s.lru.Back())
		n++
	}
	return n
}

// removeLocked unlinks one entry from index, LRU and disk.
func (s *Store) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.index, e.key)
	s.total -= e.size
	os.Remove(s.path(e.key))
}
