// Package scratch provides the per-run scratch arena behind the dense
// ID-indexed hot path: one Arena per in-flight analysis run, holding
// each analysis package's reusable working tables so a run allocates
// them once and every later run (same worker, next batch source, next
// cache-miss) resets them instead of reallocating.
//
// The arena deliberately knows nothing about its consumers: each
// analysis package (ssa, sccp, iv, depend) declares a private scratch
// struct and claims a slot here via Get, which keeps the import
// direction strictly consumer → scratch and lets the engine own arena
// lifetime without importing the back ends. An Arena is single-run,
// single-goroutine property: the engine hands one to a run, detaches it
// before the resulting State is cached or returned (cached states are
// shared across goroutines), and recycles it through a sync.Pool.
//
// Consumers must make no assumption about slot contents on entry —
// after a contained panic a table may hold a previous run's partial
// state — so every table is either sized-and-cleared on acquisition or
// guarded by a generation stamp.
package scratch

import "sync"

// Arena carries one slot per consumer package. Slots start nil and are
// lazily populated via Get with whatever private type the consumer
// declares.
type Arena struct {
	Parse  any // *parse front-end scratch (token and statement buffers)
	SSA    any // *ssa build scratch
	SCCP   any // *sccp solver scratch
	IV     any // *iv classifier scratch (embeds the scc scratch)
	Depend any // *depend tester scratch
	IR     any // *ir.CloneScratch: clone-on-transform remap tables
	Xform  any // *xform transformation scratch (gen-stamped done tables)
}

// Pool recycles arenas across runs. It wraps a sync.Pool; arenas must
// be Put back exactly once, after which the previous holder may no
// longer touch them.
type Pool struct {
	p sync.Pool
}

// NewPool returns an empty arena pool.
func NewPool() *Pool {
	pl := &Pool{}
	pl.p.New = func() any { return &Arena{} }
	return pl
}

// Get checks an arena out of the pool, allocating one the first time.
func (pl *Pool) Get() *Arena { return pl.p.Get().(*Arena) }

// Put returns an arena to the pool.
func (pl *Pool) Put(a *Arena) { pl.p.Put(a) }

// Get returns the typed scratch struct in *slot, allocating it on first
// use. A nil receiver is allowed everywhere a *Arena is threaded: the
// caller falls back to a locally allocated scratch for one-shot runs.
func Get[T any](slot *any) *T {
	if s, ok := (*slot).(*T); ok {
		return s
	}
	s := new(T)
	*slot = s
	return s
}

// Grow returns s resized to length n — reusing capacity when it can —
// with every element reset to the zero value. This is the idiom every
// dense ID-indexed table uses on acquisition: correctness never depends
// on what a recycled arena left behind.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// GrowReuse resizes a slice-of-slices to n entries, emptying each entry
// while keeping its backing capacity for reuse across runs.
func GrowReuse[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		ns := make([][]T, n)
		copy(ns, s)
		s = ns
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}
