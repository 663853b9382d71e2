package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondiv/internal/obs"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Inc("engine.cache.hit")
	r.Add("engine.cache.hit", 2)
	if got := r.Counter("engine.cache.hit"); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
	if got := r.Counter("never"); got != 0 {
		t.Errorf("unset counter = %d", got)
	}
	r.SetGauge("pool.remaining", 41)
	r.SetGauge("pool.remaining", 40)
	if got := r.Gauge("pool.remaining"); got != 40 {
		t.Errorf("gauge = %d, want 40", got)
	}
	r.ObserveDuration("phase.parse", 15*time.Microsecond)
	r.Observe("phase.parse.allocs", 120)
	s := r.Snapshot()
	if s.Hists["phase.parse"].Count != 1 || s.Hists["phase.parse.allocs"].Count != 1 {
		t.Errorf("histogram counts = %+v", s.Hists)
	}
	if got := s.Names(); len(got) != 4 {
		t.Errorf("Names = %v, want 4 entries", got)
	}
}

func TestRegistryNil(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 2)
	r.SetGauge("g", 1)
	r.Observe("h", 1)
	r.ObserveDuration("h", time.Second)
	if r.Counter("a") != 0 || r.Gauge("g") != 0 || r.Hist("h") != nil {
		t.Error("nil registry leaked state")
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Hists) != 0 {
		t.Error("nil registry snapshot non-empty")
	}
}

// TestRegistryRace hammers one registry from 8 goroutines mixing
// counters, gauges, histograms and snapshots; run with -race.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Inc("shared.counter")
				r.Add(fmt.Sprintf("per.%d", g), 2)
				r.SetGauge("shared.gauge", int64(i))
				r.Observe("shared.hist", int64(i%1000))
				r.ObserveDuration("shared.latency", time.Duration(i)*time.Microsecond)
				if i%512 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared.counter"); got != goroutines*iters {
		t.Errorf("shared.counter = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter(fmt.Sprintf("per.%d", g)); got != 2*iters {
			t.Errorf("per.%d = %d, want %d", g, got, 2*iters)
		}
	}
	wantHist := int64(goroutines * iters)
	if got := r.Hist("shared.hist").Count(); got != wantHist {
		t.Errorf("shared.hist count = %d, want %d", got, wantHist)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Add("engine.cache.hit", 7)
	r.SetGauge("guard.pool.remaining", 123)
	for i := 1; i <= 100; i++ {
		r.Observe("phase.iv", int64(i*1000))
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE biv_engine_cache_hit counter\nbiv_engine_cache_hit 7\n",
		"# TYPE biv_guard_pool_remaining gauge\nbiv_guard_pool_remaining 123\n",
		"# TYPE biv_phase_iv histogram\n",
		"biv_phase_iv_bucket{le=\"+Inf\"} 100\n",
		"biv_phase_iv_count 100\n",
		"biv_phase_iv_p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "biv_phase_iv_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("unparseable bucket line %q", line)
		}
		if v < prev {
			t.Fatalf("bucket series decreased at %q", line)
		}
		prev = v
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Inc("c")
	r.Observe("h", 5)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["c"] != 1 || s.Hists["h"].Count != 1 {
		t.Errorf("round-tripped snapshot = %+v", s)
	}
}

func TestSanitize(t *testing.T) {
	if got := Sanitize("phase steps"); got != "phase_steps" {
		t.Errorf("Sanitize = %q", got)
	}
	if got := Sanitize("xform.ivsub"); got != "xform.ivsub" {
		t.Errorf("Sanitize mangled dots: %q", got)
	}
}

func TestFlightRings(t *testing.T) {
	f := NewFlight(3, 2)
	for i := 1; i <= 5; i++ {
		run := Run{Source: fmt.Sprintf("src %d", i), DurUS: int64(i)}
		if i%2 == 0 {
			run.Err = fmt.Sprintf("boom %d", i)
			run.Fault = true
		}
		f.Record(run)
	}
	recent, failed := f.Snapshot()
	if len(recent) != 3 || recent[0].Source != "src 3" || recent[2].Source != "src 5" {
		t.Errorf("recent = %+v", recent)
	}
	if len(failed) != 2 || failed[0].Err != "boom 2" || failed[1].Err != "boom 4" {
		t.Errorf("failed = %+v", failed)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq <= recent[i-1].Seq {
			t.Errorf("recent not in seq order: %+v", recent)
		}
	}
	var nilF *Flight
	nilF.Record(Run{}) // no-op
	if r, e := nilF.Snapshot(); r != nil || e != nil {
		t.Error("nil flight snapshot non-nil")
	}
	if NewFlight(0, 0) != nil {
		t.Error("NewFlight(0) != nil")
	}
}

func TestFlightTruncation(t *testing.T) {
	f := NewFlight(1, 1)
	f.Record(Run{Source: strings.Repeat("x", 1000), Stack: strings.Repeat("s", 10000), Err: "e"})
	recent, _ := f.Snapshot()
	if n := len(recent[0].Source); n > sourcePreview+4 {
		t.Errorf("source not truncated: %d bytes", n)
	}
	if n := len(recent[0].Stack); n > stackPreview+4 {
		t.Errorf("stack not truncated: %d bytes", n)
	}
}

func TestCondense(t *testing.T) {
	rec := obs.New()
	root := rec.Phase("analyze")
	rec.Phase("parse").End()
	iv := rec.Phase("iv")
	rec.Phase("loop L1").End()
	iv.End()
	root.End()

	nodes := Condense(rec.Spans(), 0)
	if len(nodes) != 1 || nodes[0].Name != "analyze" {
		t.Fatalf("roots = %+v", nodes)
	}
	kids := nodes[0].Kids
	if len(kids) != 2 || kids[0].Name != "parse" || kids[1].Name != "iv" || len(kids[1].Kids) != 1 {
		t.Fatalf("children = %+v", kids)
	}

	depth2 := Condense(rec.Spans(), 2)
	if len(depth2[0].Kids) != 2 || depth2[0].Kids[1].Kids != nil {
		t.Errorf("maxDepth=2 kept depth-3 nodes: %+v", depth2)
	}
}
