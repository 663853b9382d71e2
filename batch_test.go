// Batch-mode and cache tests: telemetry aggregation, options
// fingerprints, shared budgets and failure isolation — one hostile
// source in a batch fails alone.
package beyondiv

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// batchCorpus builds >= 16 distinct programs: the paper corpus plus
// generated nests and chains.
func batchCorpus(t testing.TB) []string {
	var srcs []string
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	for depth := 2; depth <= 4; depth++ {
		srcs = append(srcs, progen.NestedLoops(depth))
	}
	srcs = append(srcs, progen.StraightLineLoop(64), progen.MutualChain(8))
	if len(srcs) < 16 {
		t.Fatalf("corpus too small: %d sources", len(srcs))
	}
	return srcs
}

// reportsOf renders the result of one analysis to comparable bytes.
func reportsOf(p *Program) string {
	return p.ClassificationReport() + "\n--\n" + p.DependenceReport()
}

// TestBatchTelemetryAggregates: worker recorders merge back into the
// caller's recorder — counters equal the sequential run's, and the
// span tree holds one worker span per worker under "analyze-all".
func TestBatchTelemetryAggregates(t *testing.T) {
	srcs := batchCorpus(t)[:8]
	seq := obs.New()
	for _, src := range srcs {
		if _, err := AnalyzeWith(src, Options{Obs: seq}); err != nil {
			t.Fatal(err)
		}
	}
	batch := obs.New()
	for _, r := range AnalyzeBatch(srcs, Options{Jobs: 4, Obs: batch}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	for name, want := range seq.Counters() {
		if got := batch.Counter(name); got != want {
			t.Errorf("counter %s = %d after batch, want %d", name, got, want)
		}
	}
	roots := batch.Spans()
	if len(roots) != 1 || roots[0].Name != "analyze-all" {
		t.Fatalf("batch roots = %v, want one analyze-all span", roots)
	}
	workers := 0
	for _, s := range roots[0].Children {
		if strings.HasPrefix(s.Name, "worker ") {
			workers++
		}
	}
	if workers != 4 {
		t.Errorf("analyze-all has %d worker spans, want 4", workers)
	}
}

// TestCacheFingerprintMiss: analyzers sharing one CacheDir keep their
// option sets apart, the way ivclass (SkipDependences) and depclass
// (defaults) share a store. An analyzer whose options change results
// never reads an entry written under other options — it misses and
// answers like a fresh analysis with its own options — while a second
// analyzer with the writer's options hits the writer's alias.
func TestCacheFingerprintMiss(t *testing.T) {
	src := paper.ByID("E6").Source
	dir := t.TempDir()
	def, err := NewAnalyzer(Options{CacheDir: dir}).Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	noClosedForms := Options{}
	noClosedForms.IV.DisableClosedForms = true
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"closed forms off", noClosedForms},
		{"skip dependences", Options{SkipDependences: true}},
	} {
		fresh, err := AnalyzeWith(src, tc.opts)
		if err != nil {
			t.Fatalf("%s: fresh: %v", tc.name, err)
		}
		if reportsOf(fresh) == reportsOf(def) {
			t.Fatalf("%s: report equals the default one, so a false hit would go unseen", tc.name)
		}
		rec := obs.New()
		opts := tc.opts
		opts.CacheDir, opts.Obs = dir, rec
		got, err := NewAnalyzer(opts).Analyze(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := rec.Counter("engine.store.hit"); n != 0 {
			t.Errorf("%s: engine.store.hit = %d across differing options fingerprints, want 0", tc.name, n)
		}
		if n := rec.Counter("engine.store.miss"); n != 1 {
			t.Errorf("%s: engine.store.miss = %d, want 1", tc.name, n)
		}
		if reportsOf(got) != reportsOf(fresh) {
			t.Errorf("%s: store-backed report differs from a fresh analysis\n--- store ---\n%s\n--- fresh ---\n%s",
				tc.name, reportsOf(got), reportsOf(fresh))
		}
	}
	// The writer's options from a fresh analyzer: a true hit.
	rec := obs.New()
	again, err := NewAnalyzer(Options{CacheDir: dir, Obs: rec}).Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Counter("engine.store.hit.alias"); n != 1 {
		t.Errorf("identical options + shared store: engine.store.hit.alias = %d, want 1", n)
	}
	if reportsOf(again) != reportsOf(def) {
		t.Error("identical options + shared store: hit differs from the writer's report")
	}
}

// TestBatchFailureIsolation: one source exceeding its guard ceiling
// fails with its own *Error; every other source of the batch succeeds
// with results identical to a clean run.
func TestBatchFailureIsolation(t *testing.T) {
	srcs := batchCorpus(t)[:16]
	hostile := 7
	srcs[hostile] = "j = " + strings.Repeat("(", 64) + "1" + strings.Repeat(")", 64) + "\n"
	opts := Options{Jobs: 4, Limits: guard.Limits{MaxNestDepth: 16}}
	results := AnalyzeBatch(srcs, opts)
	for i, r := range results {
		if i == hostile {
			var e *Error
			if !errors.As(r.Err, &e) {
				t.Fatalf("hostile source error is %T (%v), want *beyondiv.Error", r.Err, r.Err)
			}
			var le *guard.LimitError
			if !errors.As(r.Err, &le) {
				t.Errorf("hostile source error does not wrap the limit: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("source %d failed alongside the hostile one: %v", i, r.Err)
			continue
		}
		clean, err := AnalyzeWith(srcs[i], Options{Limits: opts.Limits})
		if err != nil {
			t.Fatalf("clean run of source %d: %v", i, err)
		}
		if reportsOf(r.Program) != reportsOf(clean) {
			t.Errorf("source %d: batch result skewed by the hostile source", i)
		}
	}
}

// TestBatchSharedBudget: a shared step pool bounds the whole batch's
// work — a tiny pool fails sources with a "shared step pool" limit
// error, a generous one lets the same batch through.
func TestBatchSharedBudget(t *testing.T) {
	srcs := batchCorpus(t)[:8]
	starved := AnalyzeBatch(srcs, Options{Jobs: 4, BatchSteps: 1})
	failed := 0
	for _, r := range starved {
		if r.Err == nil {
			continue
		}
		failed++
		var le *guard.LimitError
		if !errors.As(r.Err, &le) || le.Resource != "shared step pool" {
			t.Errorf("starved batch error = %v, want shared step pool limit", r.Err)
		}
	}
	if failed == 0 {
		t.Fatal("a 1-step shared pool failed no sources")
	}
	for i, r := range AnalyzeBatch(srcs, Options{Jobs: 4, BatchSteps: 1 << 30}) {
		if r.Err != nil {
			t.Errorf("generous pool: source %d failed: %v", i, r.Err)
		}
	}
}

// TestAnalyzeBatchEmptyAndSingle: degenerate batch sizes behave.
func TestAnalyzeBatchEmptyAndSingle(t *testing.T) {
	if got := AnalyzeBatch(nil, Options{Jobs: 4}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	results := AnalyzeBatch([]string{paper.ByID("E6").Source}, Options{Jobs: 4})
	if len(results) != 1 || results[0].Err != nil || results[0].Program == nil {
		t.Fatalf("single-source batch: %+v", results)
	}
	if fmt.Sprint(results[0].Index) != "0" {
		t.Errorf("single-source batch index = %d", results[0].Index)
	}
}
