package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestHistogramBucketBoundaries: observations land in the bucket whose
// upper bound is the first >= value — inclusive upper bounds, exclusive
// lower bounds, underflow in the first bucket, overflow in the last.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 50})
	cases := []struct {
		v      int64
		bucket int
	}{
		{math.MinInt64, 0}, {-1, 0}, {0, 0}, {1, 0}, {9, 0}, {10, 0},
		{11, 1}, {20, 1},
		{21, 2}, {50, 2},
		{51, 3}, {1000, 3}, {math.MaxInt64, 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	want := make([]int64, 4)
	for _, c := range cases {
		want[c.bucket]++
	}
	s := h.Snapshot()
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d count = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != int64(len(cases)) {
		t.Errorf("Count = %d, want %d", s.Count, len(cases))
	}
	if s.Min != math.MinInt64 || s.Max != math.MaxInt64 {
		t.Errorf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram accepted unsorted bounds")
		}
	}()
	NewHistogram([]int64{10, 10, 20})
}

// oracleRank is the nearest-rank quantile over a sorted slice: the
// ceil(q*n)-th smallest observation.
func oracleRank(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileOracle: for random distributions, every
// Quantile bracket must contain the exact nearest-rank value computed
// from the sorted observations, and the bracket must not be wider
// than one bucket.
func TestHistogramQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	qs := []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0}
	for trial := 0; trial < 50; trial++ {
		h := NewHistogram(nil)
		n := 1 + rng.Intn(400)
		vals := make([]int64, n)
		for i := range vals {
			switch trial % 3 {
			case 0: // uniform small
				vals[i] = int64(rng.Intn(100))
			case 1: // log-uniform across the ladder
				vals[i] = int64(math.Pow(10, rng.Float64()*9))
			default: // heavily repeated values
				vals[i] = int64([]int{7, 7, 7, 42, 1_000_000}[rng.Intn(5)])
			}
			h.Observe(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range qs {
			want := oracleRank(vals, q)
			lo, hi, ok := h.Quantile(q)
			if !ok {
				t.Fatalf("trial %d: Quantile(%v) not ok with %d observations", trial, q, n)
			}
			if want < lo || want > hi {
				t.Errorf("trial %d: Quantile(%v) bracket [%d, %d] misses oracle %d", trial, q, lo, hi, want)
			}
		}
	}
}

// TestHistogramQuantileExact: single-valued distributions report the
// exact value whatever the bucket width, thanks to min/max clamping.
func TestHistogramQuantileExact(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(123_456)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		lo, hi, ok := h.Quantile(q)
		if !ok || lo != 123_456 || hi != 123_456 {
			t.Errorf("Quantile(%v) = [%d, %d] ok=%v, want exact 123456", q, lo, hi, ok)
		}
		if p := h.Percentile(q); p != 123_456 {
			t.Errorf("Percentile(%v) = %d, want 123456", q, p)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	if _, _, ok := h.Quantile(0.5); ok {
		t.Error("Quantile ok on empty histogram")
	}
	if p := h.Percentile(0.99); p != 0 {
		t.Errorf("Percentile on empty = %d, want 0", p)
	}
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 {
		t.Error("nil histogram Count != 0")
	}
}

func TestDefaultBoundsShape(t *testing.T) {
	bounds := DefaultBounds()
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("DefaultBounds not ascending at %d: %d <= %d", i, bounds[i], bounds[i-1])
		}
		ratio := float64(bounds[i]) / float64(bounds[i-1])
		if ratio > 1.52 {
			t.Errorf("bracket ratio %d/%d = %.2f > 1.52", bounds[i], bounds[i-1], ratio)
		}
	}
}
