package engine

import (
	"container/list"
	"crypto/sha256"
	"sync"
)

// cacheKey content-addresses one analysis by the SHA-256 of its source
// text. The cache is private to one engine, whose options, limits and
// passes are fixed at New, so the source alone identifies the result.
type cacheKey [sha256.Size]byte

func keyOf(source string) cacheKey { return sha256.Sum256([]byte(source)) }

// resultCache is a concurrency-safe LRU of successful analysis
// results, content-addressed by source hash. Failed runs are never
// cached (a limit hit under one budget is not a fact about the
// source). States handed out on a hit are shared — they are immutable
// after analysis, so sharing is safe; callers that mutate artifacts
// (e.g. applying transformations to the SSA) should analyze without a
// cache.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	key cacheKey
	st  *State
}

// newResultCache returns an LRU holding up to capacity results.
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[cacheKey]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached state for key, refreshing its recency, or nil.
func (c *resultCache) get(key cacheKey) *State {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).st
}

// put inserts a result, evicting from the cold end past capacity, and
// reports how many entries were evicted.
func (c *resultCache) put(key cacheKey, st *State) (evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		if ent.st.art != nil && st.art == nil {
			// A live result upgrades a decoded disk placeholder: callers
			// that need the object graphs (the optimizer) bypass decoded
			// entries, and without the swap they would re-run the
			// pipeline on every request for this source.
			ent.st = st
		}
		// Otherwise a concurrent worker won the race to analyze the same
		// source; keep the incumbent so later hits stay pointer-stable.
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, st: st})
	for len(c.entries) > c.cap {
		cold := c.order.Back()
		c.order.Remove(cold)
		delete(c.entries, cold.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}
