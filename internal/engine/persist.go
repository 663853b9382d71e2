package engine

import (
	"crypto/sha256"
	"errors"
	"sync"

	"beyondiv/internal/codec"
	"beyondiv/internal/store"
)

// Disk-tier key derivation. Two key families share the store, separated
// by domain tags and both mixed with the engine fingerprint (options +
// limits + pass names, length-prefixed):
//
//	alias key = H("biv.alias" ‖ fp ‖ raw source)
//	entry key = H("biv.entry" ‖ fp ‖ structural hash)
//
// An alias record maps one exact source to the structural entry that
// answers it, carrying that source's own name table — the entry may
// have been written for an α-renamed sibling, so the table cannot live
// in the entry. An entry holds the encoded artifact.

func (e *Engine) aliasKey(source string) [32]byte {
	h := sha256.New()
	h.Write([]byte("biv.alias\x00"))
	h.Write([]byte(e.fp))
	h.Write([]byte{0})
	h.Write([]byte(source))
	var k [32]byte
	h.Sum(k[:0])
	return k
}

func (e *Engine) entryKey(structSum [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("biv.entry\x00"))
	h.Write([]byte(e.fp))
	h.Write([]byte{0})
	h.Write(structSum[:])
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// aliasGet resolves the exact-source alias for source, then decodes the
// structural entry it points at under the alias's name table. Any
// corrupt blob on the way is counted, deleted and treated as a miss.
func (e *Engine) aliasGet(source string, s sink) *codec.Artifact {
	ak := e.aliasKey(source)
	data, ok := e.cfg.Store.Get(ak)
	if !ok {
		return nil
	}
	structSum, names, err := codec.DecodeAlias(data)
	if err != nil {
		e.discard(s, ak)
		return nil
	}
	return e.entryGet(structSum, names, s, "engine.store.hit.alias")
}

// entryGet reads and decodes the structural entry for structSum under
// the requester's name table, counting a hit as engine.store.hit and
// as kind. A corrupt entry is deleted and counted; a valid entry that
// cannot serve this table (not renameable, or a remap-invariant
// violation) is kept for its own sources and reported as a miss.
func (e *Engine) entryGet(structSum [32]byte, names []string, s sink, kind string) *codec.Artifact {
	ek := e.entryKey(structSum)
	data, ok := e.cfg.Store.Get(ek)
	if !ok {
		return nil
	}
	art, err := codec.Decode(data, names)
	if err != nil {
		if errors.Is(err, codec.ErrCorrupt) {
			e.discard(s, ek)
		}
		return nil
	}
	s.Add("engine.store.hit", 1)
	s.Add(kind, 1)
	return art
}

// discard deletes a blob that failed to decode and counts it.
func (e *Engine) discard(s sink, key [32]byte) {
	e.cfg.Store.Delete(key)
	s.Add("engine.store.corrupt", 1)
}

// diskWrite hands a fresh successful run to the writer: the alias for
// the exact source, and the entry, whose blob is built from st (by now
// detached from its run, and immutable) on the writer — or here, when
// maxUnbuilt writes already wait. engine.store.write counts the
// hand-off on the run's sink s. Serialization or I/O failures only
// cost persistence — the live result has already been computed and is
// returned regardless.
func (e *Engine) diskWrite(s sink, st *State, structSum [32]byte, structNames []string) {
	wr := &write{
		entryKey: e.entryKey(structSum),
		aliasKey: e.aliasKey(st.Source), alias: codec.EncodeAlias(structSum, structNames),
		build: func() ([]byte, error) { return e.cfg.BuildArtifact(st, structSum, structNames) },
	}
	if e.w.handOff(wr) {
		s.Add("engine.store.write", 1)
	}
}

// Flush waits until every store write handed off before the call is on
// disk, or has failed. Writes land in the background (DESIGN §13): call
// Flush before the process exits, before reporting store counters, and
// before this or another engine or process reads what it wrote. Without
// a store it returns at once.
func (e *Engine) Flush() { e.w.flush() }

// maxPendingBytes bounds the built blob bytes handed to a writer and
// not yet on disk. A hand-off past it blocks until the writer catches
// up, so a burst of cold runs holds at most this much (plus one blob)
// in memory and no write is ever dropped.
const maxPendingBytes = 8 << 20

// maxUnbuilt bounds the writes that wait for the writer with their
// blob not yet built. A hand-off that finds this many waiting builds
// its blob on its own goroutine and queues the bytes under
// maxPendingBytes: a cold run never waits for the writer's builds, and
// nothing is dropped. A larger bound keeps the writer's CPU busier,
// and the heap grows with the work done per second (DESIGN §13).
const maxUnbuilt = 2

// writer takes an engine's store writes off the request path: one
// goroutine at a time builds and writes the handed-off records in
// hand-off order, each entry before its alias, so a reader that finds
// an alias finds its entry. Reads never consult it: a record is
// visible once it is on disk. It runs only while records are queued.
// A nil writer (no store) holds nothing and flushes at once.
type writer struct {
	// put is the store's Put. s is the engine's recorder and registry:
	// the writer counts there the store evictions it makes and the
	// builds that panic.
	put func(key [32]byte, data []byte) (evicted int, err error)
	s   sink

	mu      sync.Mutex
	cond    sync.Cond // broadcast when a write finishes or the writer stops
	queue   []*write
	bytes   int    // built blob bytes queued and not yet written
	unbuilt int    // queued writes whose blob waits for the writer
	sent    uint64 // writes handed off
	done    uint64 // writes finished, on disk or failed
	running bool
}

// write is one hand-off: an entry and the alias that points at it, or
// an alias alone (nil entry, nil build) for a structural hit. While
// build is set the entry waits for the writer to build it; the run
// that hands off builds it instead when the writer is behind.
type write struct {
	entryKey, aliasKey [32]byte
	entry, alias       []byte

	build func() ([]byte, error)
	size  int // the bytes counted in writer.bytes
}

// built runs one write's build. A panic in it is contained: the write
// is dropped, entry and alias alike, and counted once as
// engine.store.fault on the engine's sink; the run's live result is
// returned regardless.
func (w *writer) built(build func() ([]byte, error)) (data []byte) {
	defer func() {
		if recover() != nil {
			data = nil
			w.s.Add("engine.store.fault", 1)
		}
	}()
	data, err := build()
	if err != nil {
		return nil
	}
	return data
}

func newWriter(st *store.Store, s sink) *writer {
	w := &writer{put: st.Put, s: s}
	w.cond.L = &w.mu
	return w
}

// handOff queues wr and reports whether it did. An unbuilt write waits
// for the writer as one of at most maxUnbuilt; past that, handOff
// builds its blob first, and drops the write if the build fails. A
// built blob queues under the byte bound: handOff blocks while the
// pending bytes are at or past maxPendingBytes.
func (w *writer) handOff(wr *write) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if wr.build != nil && w.unbuilt >= maxUnbuilt {
		// The writer is behind: build here instead of waiting.
		w.mu.Unlock()
		wr.entry = w.built(wr.build)
		w.mu.Lock()
		if wr.entry == nil {
			return false
		}
		wr.build = nil
	}
	wr.size = len(wr.alias) + len(wr.entry)
	if wr.build != nil {
		w.unbuilt++
	} else {
		for w.bytes >= maxPendingBytes {
			w.cond.Wait()
		}
	}
	w.queue = append(w.queue, wr)
	w.bytes += wr.size
	w.sent++
	if !w.running {
		w.running = true
		go w.run()
	}
	return true
}

// run builds and writes the queue in order until it is empty. An entry
// that fails to build or to write takes its alias with it: an alias
// must not point at nothing.
func (w *writer) run() {
	w.mu.Lock()
	for len(w.queue) > 0 {
		wr := w.queue[0]
		w.queue[0] = nil
		w.queue = w.queue[1:]
		if wr.build != nil {
			w.unbuilt--
		}
		w.mu.Unlock()

		ok := true
		if wr.build != nil {
			wr.entry = w.built(wr.build)
			ok = wr.entry != nil
		}
		evicted, err := 0, error(nil)
		if ok && wr.entry != nil {
			evicted, err = w.put(wr.entryKey, wr.entry)
		}
		if ok && err == nil {
			n, _ := w.put(wr.aliasKey, wr.alias)
			evicted += n
		}
		if evicted > 0 {
			w.s.Add("engine.store.evict", int64(evicted))
		}

		w.mu.Lock()
		w.bytes -= wr.size
		w.done++
		w.cond.Broadcast()
	}
	w.queue = nil
	w.running = false
	w.mu.Unlock()
}

// flush waits until every write handed off before the call finished.
func (w *writer) flush() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for target := w.sent; w.done < target; {
		w.cond.Wait()
	}
}
