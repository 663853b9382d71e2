package engine

import (
	"crypto/sha256"
	"errors"

	"beyondiv/internal/codec"
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

// diskWrite persists a fresh successful run: the encoded artifact under
// the structural key, plus an alias for the exact source that produced
// it. Serialization or I/O failures only cost persistence — the live
// result has already been computed and is returned regardless.
func (e *Engine) diskWrite(st *State, structSum [32]byte, structNames []string) {
	data, err := e.cfg.BuildArtifact(st, structSum, structNames)
	if err != nil || data == nil {
		return
	}
	evicted, err := e.cfg.Store.Put(e.entryKey(structSum), data)
	if err != nil {
		return
	}
	e.cfg.Store.Put(e.aliasKey(st.Source), codec.EncodeAlias(structSum, structNames))
	st.Add("engine.store.write", 1)
	if evicted > 0 {
		st.Add("engine.store.evict", int64(evicted))
	}
}
