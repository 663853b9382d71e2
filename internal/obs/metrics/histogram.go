package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution of int64 observations
// (latencies in nanoseconds, allocation counts, sizes). Buckets are
// defined by ascending upper bounds; an observation v lands in the
// first bucket with v <= bound, or in the implicit overflow bucket
// past the last bound. Alongside the bucket counts the histogram
// tracks count, sum, min and max exactly, which lets Quantile clamp
// its bucket bracket to the observed range — a single-valued or
// single-bucket distribution therefore reports exact percentiles.
//
// Histograms are safe for concurrent use. Observe is lock-free — an inline binary search plus a handful of
// atomic adds — so it sits on the engine's per-pass hot path without
// a mutex. The price is that a Snapshot taken while observers are
// mid-flight may be off by those in-flight observations (count and
// bucket totals can momentarily disagree); every quiescent read is
// exact.
type Histogram struct {
	bounds []int64        // ascending bucket upper bounds (inclusive); read-only after New
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// DefaultBounds is the bound ladder histograms are created with when
// none is given: six geometric steps per decade (ratio <= 1.5) from
// 10 to 6.8e9. In nanoseconds that spans 10ns to ~6.8s; as counts it
// spans 10 to ~6.8 billion — wide enough for both latency and alloc
// distributions with bracket error bounded by one ladder step.
func DefaultBounds() []int64 {
	mul := []int64{10, 15, 22, 33, 47, 68}
	var out []int64
	for dec := int64(1); dec <= 100_000_000; dec *= 10 {
		for _, m := range mul {
			out = append(out, m*dec)
		}
	}
	return out
}

// NewHistogram returns a histogram over the given ascending bounds
// (DefaultBounds when nil). Panics on unsorted or duplicate bounds —
// a histogram's shape is a static configuration error, not input.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not strictly ascending at %d: %d <= %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	h := &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Inline binary search for the first bound with v <= bound;
	// sort.Search would cost a closure call per probe.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile returns a bracket [lo, hi] guaranteed to contain the q-th
// quantile (nearest-rank over the ordered observations, 0 < q <= 1),
// and ok=false on an empty histogram. The bracket is the selected
// bucket's bounds clamped to the observed min/max, so it is exact
// (lo == hi) whenever the rank falls in a bucket whose observations
// are pinned by the clamp — in particular for single-valued
// distributions — and never wider than one bucket otherwise.
func (h *Histogram) Quantile(q float64) (lo, hi int64, ok bool) {
	if h == nil {
		return 0, 0, false
	}
	s := h.raw()
	return s.quantile(q)
}

// quantile is Quantile over an immutable snapshot.
func (s *HistSnapshot) quantile(q float64) (lo, hi int64, ok bool) {
	if s.Count == 0 {
		return 0, 0, false
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			lo, hi = math.MinInt64, math.MaxInt64
			if i > 0 {
				lo = s.Bounds[i-1] + 1
			}
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			if s.Min > lo {
				lo = s.Min
			}
			if s.Max < hi {
				hi = s.Max
			}
			return lo, hi, true
		}
	}
	return s.Min, s.Max, true // in-flight Observe skew: fall back to the exact range
}

// Percentile returns the conservative (upper) end of the Quantile
// bracket — the standard single-number p50/p90/p99 readout — or 0 on
// an empty histogram.
func (h *Histogram) Percentile(q float64) int64 {
	if h == nil {
		return 0
	}
	s := h.raw()
	_, hi, ok := s.quantile(q)
	if !ok {
		return 0
	}
	return hi
}

// HistSnapshot is an immutable, JSON-serializable copy of a histogram.
type HistSnapshot struct {
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min,omitempty"`
	Max    int64   `json:"max,omitempty"`
	P50    int64   `json:"p50"`
	P90    int64   `json:"p90"`
	P99    int64   `json:"p99"`
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
}

// Snapshot returns a copy of the histogram's state, including
// conservative p50/p90/p99 readouts. Concurrent Observe calls may
// leave the copy short by the in-flight observations; a quiescent
// histogram snapshots exactly.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := h.raw()
	if s.Count > 0 {
		_, s.P50, _ = s.quantile(0.50)
		_, s.P90, _ = s.quantile(0.90)
		_, s.P99, _ = s.quantile(0.99)
	} else {
		s.Min, s.Max = 0, 0
	}
	return s
}

// raw copies the live fields without percentile post-processing.
func (h *Histogram) raw() HistSnapshot {
	s := HistSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Min:    h.min.Load(),
		Max:    h.max.Load(),
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}
