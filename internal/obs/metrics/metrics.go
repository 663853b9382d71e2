// Package metrics is the process-lifetime tier of the observability
// stack. Where a *obs.Recorder captures one analysis run's span tree
// and dies with it, a metrics.Registry aggregates across every run of
// a process: monotonic counters, point-in-time gauges, and
// fixed-bucket histograms of latencies and allocation counts with
// p50/p90/p99 extraction. The engine feeds a registry automatically
// when one is configured — every phase, cache hit/miss/evict, batch
// worker, guard-limit trip, contained fault and transform outcome
// lands here keyed by phase name — and the debugserv package serves
// it over HTTP for a long-running process.
//
// Like the recorder, a nil *Registry is the valid "metrics off"
// value: every method no-ops on a nil receiver, so instrumentation
// threads it unconditionally at the cost of a nil check.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a concurrency-safe named collection of counters, gauges
// and histograms. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*atomic.Int64{},
		gauges:   map[string]*atomic.Int64{},
		hists:    map[string]*Histogram{},
	}
}

// counter returns the named counter, creating it on first use.
func (r *Registry) counter(name string) *atomic.Int64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &atomic.Int64{}
		r.counters[name] = c
	}
	return c
}

// Inc adds one to the named counter.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Add adds delta to the named counter.
func (r *Registry) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.counter(name).Add(delta)
}

// Counter returns the named counter's value (zero when never
// incremented).
func (r *Registry) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// SetGauge sets the named gauge to v.
func (r *Registry) SetGauge(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		r.mu.Lock()
		if g = r.gauges[name]; g == nil {
			g = &atomic.Int64{}
			r.gauges[name] = g
		}
		r.mu.Unlock()
	}
	g.Store(v)
}

// Gauge returns the named gauge's value (zero when never set).
func (r *Registry) Gauge(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g == nil {
		return 0
	}
	return g.Load()
}

// Hist returns the named histogram, creating it with DefaultBounds on
// first use. Returns nil on a nil registry.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.hist(name)
}

func (r *Registry) hist(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(nil)
		r.hists[name] = h
	}
	return h
}

// Observe records v into the named histogram (DefaultBounds on first
// use).
func (r *Registry) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.hist(name).Observe(v)
}

// ObserveDuration records d in nanoseconds into the named histogram.
func (r *Registry) ObserveDuration(name string, d time.Duration) {
	r.Observe(name, d.Nanoseconds())
}

// Snapshot is an immutable, JSON-serializable copy of a registry.
type Snapshot struct {
	Counters map[string]int64        `json:"counters"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state. Counters and gauges
// are read atomically per entry; histograms snapshot under their own
// lock, so each entry is internally consistent.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Hists: map[string]HistSnapshot{}}
	}
	r.mu.RLock()
	counters := make(map[string]*atomic.Int64, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*atomic.Int64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	s := &Snapshot{
		Counters: make(map[string]int64, len(counters)),
		Gauges:   make(map[string]int64, len(gauges)),
		Hists:    make(map[string]HistSnapshot, len(hists)),
	}
	for k, v := range counters {
		s.Counters[k] = v.Load()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Load()
	}
	for k, v := range hists {
		s.Hists[k] = v.Snapshot()
	}
	return s
}

// Names returns the sorted union of all metric names in the snapshot,
// for deterministic rendering.
func (s *Snapshot) Names() []string {
	seen := map[string]bool{}
	var names []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			names = append(names, k)
		}
	}
	for k := range s.Counters {
		add(k)
	}
	for k := range s.Gauges {
		add(k)
	}
	for k := range s.Hists {
		add(k)
	}
	sort.Strings(names)
	return names
}
