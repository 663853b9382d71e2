package engine_test

import (
	"strings"
	"sync"
	"testing"

	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
)

// TestMetricsFedByAnalyze: a configured registry receives per-phase
// latency histograms and cache counters; the flight recorder captures
// each run with its span tree.
func TestMetricsFedByAnalyze(t *testing.T) {
	reg := metrics.NewRegistry()
	fl := metrics.NewFlight(16, 4)
	rec := obs.New()
	e := frontend(engine.Config{Obs: rec, Metrics: reg, Flight: fl, CacheEntries: 8})

	if _, err := e.Analyze(src); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(src); err != nil { // cache hit
		t.Fatal(err)
	}

	for _, phase := range []string{"parse", "cfgbuild", "ssa", "loops", "sccp", "analyze"} {
		h := reg.Hist("phase." + phase)
		if h.Count() != 1 {
			t.Errorf("phase.%s histogram count = %d, want 1", phase, h.Count())
		}
		if p99 := h.Percentile(0.99); p99 <= 0 {
			t.Errorf("phase.%s p99 = %d, want > 0", phase, p99)
		}
	}
	if reg.Counter("engine.cache.miss") != 1 || reg.Counter("engine.cache.hit") != 1 {
		t.Errorf("cache counters miss=%d hit=%d, want 1/1",
			reg.Counter("engine.cache.miss"), reg.Counter("engine.cache.hit"))
	}
	// With a recorder active, alloc histograms ride along.
	if reg.Hist("phase.parse.allocs").Count() == 0 {
		t.Error("phase.parse.allocs histogram empty despite active recorder")
	}

	recent, failed := fl.Snapshot()
	if len(recent) != 2 || len(failed) != 0 {
		t.Fatalf("flight = %d recent / %d failed, want 2/0", len(recent), len(failed))
	}
	if recent[0].Cached || !recent[1].Cached {
		t.Errorf("cached flags = %v/%v, want false/true", recent[0].Cached, recent[1].Cached)
	}
	if len(recent[0].Spans) == 0 {
		t.Error("uncached run has no condensed spans")
	}
}

// TestSharedRecorderConcurrentRuns: runs may share one recorder. Each
// run records into a fork of its own, so every flight record holds only
// its own run's spans, shaped as a lone run's are, and each run
// observes its parse allocations once; -race checks that nothing reads
// a tree another run writes.
func TestSharedRecorderConcurrentRuns(t *testing.T) {
	shape := func(r metrics.Run) string {
		var b strings.Builder
		var walk func(ns []metrics.SpanNode)
		walk = func(ns []metrics.SpanNode) {
			for _, n := range ns {
				b.WriteString(n.Name + "(")
				walk(n.Kids)
				b.WriteString(")")
			}
		}
		walk(r.Spans)
		return b.String()
	}
	lone := metrics.NewFlight(1, 1)
	if _, err := frontend(engine.Config{Obs: obs.New(), Flight: lone}).Analyze(src); err != nil {
		t.Fatal(err)
	}
	recent, _ := lone.Snapshot()
	want := shape(recent[0])

	fl, reg := metrics.NewFlight(256, 4), metrics.NewRegistry()
	e := frontend(engine.Config{Obs: obs.New(), Metrics: reg, Flight: fl})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 64 {
				if _, err := e.Analyze(src); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	recent, failed := fl.Snapshot()
	if len(recent) != 256 || len(failed) != 0 {
		t.Errorf("flight = %d recent / %d failed, want 256/0", len(recent), len(failed))
	}
	mixed := 0
	for _, r := range recent {
		if got := shape(r); got != want {
			if mixed++; mixed == 1 {
				t.Errorf("a flight record holds spans\n%s\nnot a lone run's\n%s", got, want)
			}
		}
	}
	if mixed > 0 {
		t.Errorf("%d of %d flight records hold other runs' spans", mixed, len(recent))
	}
	if n := reg.Hist("phase.parse.allocs").Count(); n != 256 {
		t.Errorf("phase.parse.allocs has %d observations for 256 runs", n)
	}
}

// TestMetricsWithoutRecorder: metrics work with tracing off — latency
// histograms still fill, alloc histograms (which need the recorder's
// memstats reads) stay empty.
func TestMetricsWithoutRecorder(t *testing.T) {
	reg := metrics.NewRegistry()
	e := frontend(engine.Config{Metrics: reg})
	if _, err := e.Analyze(src); err != nil {
		t.Fatal(err)
	}
	if reg.Hist("phase.ssa").Count() != 1 {
		t.Error("phase.ssa histogram empty without recorder")
	}
	if reg.Hist("phase.ssa.allocs").Count() != 0 {
		t.Error("alloc histogram filled without a recorder to measure")
	}
}

// TestMetricsFaultAttribution: a contained panic bumps
// engine.fault.<phase> and lands in the flight recorder's failed ring
// with Fault set and a stack; a guard-limit trip bumps
// guard.trip.<phase>.<resource>.
func TestMetricsFaultAttribution(t *testing.T) {
	reg := metrics.NewRegistry()
	fl := metrics.NewFlight(8, 4)
	e := frontend(engine.Config{
		Metrics: reg, Flight: fl,
		Limits: guard.Limits{Inject: guard.PanicIn("sccp")},
	})
	if _, err := e.Analyze(src); err == nil {
		t.Fatal("injected fault did not fail the run")
	}
	if reg.Counter("engine.fault.sccp") != 1 || reg.Counter("engine.err") != 1 {
		t.Errorf("fault counters = %d/%d, want 1/1",
			reg.Counter("engine.fault.sccp"), reg.Counter("engine.err"))
	}
	_, failed := fl.Snapshot()
	if len(failed) != 1 {
		t.Fatalf("failed ring has %d runs, want 1", len(failed))
	}
	f := failed[0]
	if !f.Fault || f.Phase != "sccp" || f.Stack == "" || !strings.Contains(f.Err, "injected fault") {
		t.Errorf("failed run = %+v", f)
	}

	lim := frontend(engine.Config{
		Metrics: reg,
		Limits:  guard.Limits{MaxPhaseSteps: 5},
	})
	if _, err := lim.Analyze(src); err == nil {
		t.Fatal("step ceiling did not fail the run")
	}
	found := false
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "guard.trip.") && v > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no guard.trip.* counter recorded: %v", reg.Snapshot().Counters)
	}
}

// TestMetricsBatchAndPool: AnalyzeAll publishes its worker pool's
// fan-out counters and gauge, and concurrent workers feed one registry
// without losing observations.
func TestMetricsBatchAndPool(t *testing.T) {
	reg := metrics.NewRegistry()
	e := frontend(engine.Config{Obs: obs.New(), Metrics: reg, Jobs: 4})
	sources := make([]string, 8)
	for i := range sources {
		sources[i] = src
	}
	for _, it := range e.AnalyzeAll(sources) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	if reg.Counter("engine.batch") != 1 || reg.Counter("engine.batch.sources") != 8 {
		t.Errorf("batch counters = %d/%d",
			reg.Counter("engine.batch"), reg.Counter("engine.batch.sources"))
	}
	if reg.Gauge("engine.batch.workers") != 4 {
		t.Errorf("workers gauge = %d, want 4", reg.Gauge("engine.batch.workers"))
	}
	if reg.Hist("phase.analyze").Count() != 8 {
		t.Errorf("phase.analyze count = %d, want 8", reg.Hist("phase.analyze").Count())
	}
}

// TestMetricsOptimize: transform rounds, rewrites and validation
// outcomes reach the registry.
func TestMetricsOptimize(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := engine.Config{
		Passes:  engine.Frontend(),
		Metrics: reg,
		Transforms: []engine.TransformPass{{
			Name: "noop", Tier: engine.TierSSA,
			Run: func(st *engine.State) (int, error) { return 0, nil },
		}},
	}
	if _, err := engine.New(cfg).Optimize(src); err != nil {
		t.Fatal(err)
	}
	if reg.Counter("engine.opt.rounds") != 1 {
		t.Errorf("opt.rounds = %d, want 1", reg.Counter("engine.opt.rounds"))
	}
	if reg.Counter("xform.noop.rewrites") != 0 {
		t.Errorf("noop rewrites = %d", reg.Counter("xform.noop.rewrites"))
	}
	if reg.Hist("phase.xform.noop").Count() != 1 {
		t.Errorf("xform latency count = %d, want 1", reg.Hist("phase.xform.noop").Count())
	}
	if reg.Hist("phase.optimize").Count() != 1 {
		t.Errorf("optimize latency count = %d, want 1", reg.Hist("phase.optimize").Count())
	}
}
