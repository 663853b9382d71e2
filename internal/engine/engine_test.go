// Engine tests: pass execution and artifact population, containment of
// pass errors and panics, cache LRU behavior, and batch mechanics.
// The full-pipeline fault-injection tables live with the entry points
// they guard (hardening_test.go at the root, pipeline_test.go in iv).
package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
)

const src = `
j = 0
L1: for i = 1 to 10 {
    j = j + i
    a[j] = a[j - 1]
}
`

func frontend(cfg engine.Config) *engine.Engine {
	cfg.Passes = engine.Frontend()
	return engine.New(cfg)
}

// TestFrontendArtifacts: every typed frontend slot is populated, in
// dependency order.
func TestFrontendArtifacts(t *testing.T) {
	st, err := frontend(engine.Config{}).Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Source != src {
		t.Error("state does not carry its source")
	}
	if st.File == nil || st.CFG == nil || st.SSA == nil || st.Forest == nil || st.Consts == nil {
		t.Fatalf("frontend left artifacts empty: %+v", st)
	}
	if len(st.Forest.Loops) != 1 || st.Forest.Loops[0].Label != "L1" {
		t.Errorf("loop labels not attached: %v", st.Forest.Loops)
	}
}

// TestContributedPass: a pass appended to the frontend sees the typed
// artifacts and its keyed artifact is readable back.
func TestContributedPass(t *testing.T) {
	passes := append(engine.Frontend(), engine.Pass{Name: "count", Run: func(st *engine.State) error {
		n := 0
		for _, b := range st.SSA.Func.Blocks {
			n += len(b.Values)
		}
		st.Put("count", n)
		return nil
	}})
	st, err := engine.New(engine.Config{Passes: passes}).Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := st.Artifact("count").(int); !ok || n == 0 {
		t.Errorf("contributed artifact = %v", st.Artifact("count"))
	}
	if st.Artifact("absent") != nil {
		t.Error("unknown artifact key is non-nil")
	}
}

// TestPassErrorWrapped: a pass's error return surfaces as *Error
// naming the pass.
func TestPassErrorWrapped(t *testing.T) {
	boom := errors.New("boom")
	passes := append(engine.Frontend(), engine.Pass{Name: "custom", Run: func(st *engine.State) error {
		return boom
	}})
	_, err := engine.New(engine.Config{Passes: passes}).Analyze(src)
	var e *engine.Error
	if !errors.As(err, &e) || e.Phase != "custom" || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want *Error{Phase: custom} wrapping boom", err)
	}
	if e.Stack != nil {
		t.Error("error return carries a panic stack")
	}
}

// TestPassPanicContained: a panic inside a pass is contained with a
// stack; analysis of the same engine afterwards still works.
func TestPassPanicContained(t *testing.T) {
	fail := true
	passes := append(engine.Frontend(), engine.Pass{Name: "custom", Run: func(st *engine.State) error {
		if fail {
			panic("kaboom")
		}
		return nil
	}})
	eng := engine.New(engine.Config{Passes: passes})
	_, err := eng.Analyze(src)
	var e *engine.Error
	if !errors.As(err, &e) || e.Phase != "custom" || len(e.Stack) == 0 {
		t.Fatalf("err = %v, want contained panic in custom with stack", err)
	}
	if !strings.Contains(e.Err.Error(), "kaboom") {
		t.Errorf("cause %q lost the panic value", e.Err)
	}
	fail = false
	if _, err := eng.Analyze(src); err != nil {
		t.Errorf("engine unusable after a contained panic: %v", err)
	}
}

// TestLimitsNormalizedOnEveryPath: an engine built with zero limits
// still enforces the default ceilings (the safety gap the refactor
// closes: no entry point runs unguarded).
func TestLimitsNormalizedOnEveryPath(t *testing.T) {
	deep := "j = " + strings.Repeat("(", 5000) + "1" + strings.Repeat(")", 5000)
	_, err := frontend(engine.Config{}).Analyze(deep)
	var le *guard.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("default ceilings not enforced: %v", err)
	}
}

// TestCacheLRU: capacity-2 cache over three sources evicts the
// coldest; hit/miss/evict counters record every step.
func TestCacheLRU(t *testing.T) {
	rec := obs.New()
	srcs := []string{"a = 1\n", "b = 2\n", "c = 3\n"}
	eng := frontend(engine.Config{CacheEntries: 2, Obs: rec})

	counters := func() (hit, miss, evict int64) {
		return rec.Counter("engine.cache.hit"), rec.Counter("engine.cache.miss"), rec.Counter("engine.cache.evict")
	}
	st0, err := eng.Analyze(srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := eng.Analyze(srcs[0]); st != st0 {
		t.Error("immediate re-analysis missed the cache")
	}
	eng.Analyze(srcs[1])
	if hit, miss, evict := counters(); hit != 1 || miss != 2 || evict != 0 {
		t.Errorf("hit/miss/evict = %d/%d/%d, want 1/2/0", hit, miss, evict)
	}
	// srcs[0] is hotter than srcs[1]; inserting srcs[2] must evict srcs[1].
	eng.Analyze(srcs[0])
	eng.Analyze(srcs[2])
	if _, _, evict := counters(); evict != 1 {
		t.Errorf("evict = %d, want 1", evict)
	}
	if st, _ := eng.Analyze(srcs[0]); st != st0 {
		t.Error("hot entry was evicted")
	}
	rec2 := obs.New()
	eng2 := frontend(engine.Config{Obs: rec2})
	eng2.Analyze(srcs[0])
	if rec2.Counter("engine.cache.miss") != 0 {
		t.Error("cacheless engine recorded cache traffic")
	}
}

// TestCacheSkipsFailures: failed analyses are never cached — a source
// that failed under an injected fault re-runs (and succeeds) once the
// fault is gone.
func TestCacheSkipsFailures(t *testing.T) {
	arm := true
	lim := guard.Limits{Inject: func(phase string) {
		if arm && phase == "ssa" {
			panic(&guard.Fault{Phase: "ssa"})
		}
	}}
	eng := frontend(engine.Config{CacheEntries: 4, Limits: lim})
	if _, err := eng.Analyze(src); err == nil {
		t.Fatal("armed fault did not fire")
	}
	arm = false
	st, err := eng.Analyze(src)
	if err != nil || st == nil {
		t.Fatalf("re-analysis after disarmed fault: %v", err)
	}
}

// TestAnalyzeAllOrderAndJobsClamp: results return in input order for
// every jobs setting, including jobs > len(sources) and jobs <= 0.
func TestAnalyzeAllOrderAndJobsClamp(t *testing.T) {
	var srcs []string
	for i := 0; i < 9; i++ {
		srcs = append(srcs, fmt.Sprintf("x = %d\n", i))
	}
	for _, jobs := range []int{0, 1, 3, 100} {
		items := frontend(engine.Config{Jobs: jobs}).AnalyzeAll(srcs)
		if len(items) != len(srcs) {
			t.Fatalf("jobs=%d: %d items", jobs, len(items))
		}
		for i, it := range items {
			if it.Index != i || it.Source != srcs[i] || it.Err != nil || it.State == nil {
				t.Errorf("jobs=%d item %d = {%d %q err=%v}", jobs, i, it.Index, it.Source, it.Err)
			}
		}
	}
}

// TestBatchCacheDedup: a batch full of duplicates analyzes each
// distinct source once (modulo benign races) when cached.
func TestBatchCacheDedup(t *testing.T) {
	rec := obs.New()
	eng := frontend(engine.Config{CacheEntries: 4, Jobs: 1, Obs: rec})
	srcs := []string{"a = 1\n", "a = 1\n", "a = 1\n", "b = 2\n"}
	for _, it := range eng.AnalyzeAll(srcs) {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
	}
	if miss := rec.Counter("engine.cache.miss"); miss != 2 {
		t.Errorf("misses = %d, want 2 (two distinct sources)", miss)
	}
	if hit := rec.Counter("engine.cache.hit"); hit != 2 {
		t.Errorf("hits = %d, want 2", hit)
	}
}
