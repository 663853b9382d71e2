// Parallel-tier regression tests. The intra-run fan-out is the
// dependence tester's pair sweep, and it must be invisible in results
// (byte-identical reports and provenance at every width) and
// near-invisible in allocations (per-worker setup, not per-pair). CI
// additionally runs these under -race with GOMAXPROCS=4, turning any
// cross-worker write into a failure.
package beyondiv

import (
	"runtime/debug"
	"testing"
	"time"

	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// parCorpus is every program the parallel pair sweep is validated on:
// the full paper corpus plus generated shapes with many array pairs
// (Large, DepWorkload) and shapes under the sweep's work-size
// threshold, below which the sequential path must be taken.
func parCorpus() []string {
	srcs := []string{
		progen.Large(2),
		progen.Large(12),
		progen.Large(33),
		progen.MixedClasses(8),
		progen.NestedLoops(4),
		progen.StraightLineLoop(64),
		progen.DepWorkload(3),
		progen.DepWorkload(11),
	}
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	return srcs
}

// explainProbes are variable names whose provenance chains the
// determinism test compares across widths; names a program does not
// define explain to the same empty answer on both sides.
var explainProbes = []string{"i", "j", "k", "s0", "q1", "d11", "w000", "acc"}

// TestParallelMatchesSequential: a Parallel=4 analyzer must produce
// byte-identical classification reports, dependence reports and
// provenance renderings to a sequential one on every corpus program —
// the parallel tier's core contract (DESIGN.md §14). Only the
// dependence sweep fans out, but the classification side stays
// compared: the sweep reads the classification and fills its lazily
// cached exit values, so a race there would show in either rendering.
func TestParallelMatchesSequential(t *testing.T) {
	seq := NewAnalyzer(Options{Parallel: 1})
	par := NewAnalyzer(Options{Parallel: 4})
	for i, src := range parCorpus() {
		want, err := seq.Analyze(src)
		if err != nil {
			t.Fatalf("src %d: sequential: %v", i, err)
		}
		got, err := par.Analyze(src)
		if err != nil {
			t.Fatalf("src %d: parallel: %v", i, err)
		}
		if g, w := got.ClassificationReport(), want.ClassificationReport(); g != w {
			t.Errorf("src %d: classification diverges at Parallel=4\n--- sequential ---\n%s\n--- parallel ---\n%s", i, w, g)
		}
		if g, w := got.DependenceReport(), want.DependenceReport(); g != w {
			t.Errorf("src %d: dependences diverge at Parallel=4\n--- sequential ---\n%s\n--- parallel ---\n%s", i, w, g)
		}
		if g, w := got.ExplainAllDeps(), want.ExplainAllDeps(); g != w {
			t.Errorf("src %d: dependence provenance diverges at Parallel=4", i)
		}
		for _, name := range explainProbes {
			if g, w := got.Explain(name), want.Explain(name); g != w {
				t.Errorf("src %d: Explain(%q) diverges at Parallel=4\n--- sequential ---\n%s\n--- parallel ---\n%s", i, name, w, g)
			}
		}
	}
}

// TestParallelAllocOverhead pins the parallel pair sweep's allocation
// overhead. Measured at Parallel=4 on Large(n) it is ~63 + 4.3n allocs
// (117 at n=12, 219 at n=36, 267 at n=48; under 0.5% of the run; the
// same at GOMAXPROCS 1, 2 and 4):
//   - ~50 fixed: the materialized pair list and result slots, one
//     tester, budget and arena checkout per worker, the goroutines and
//     their span names;
//   - ~4.3 per loop: the postdominator tree, which the sweep's
//     sequential prewarm builds eagerly while the sequential sweep
//     builds it only when a subscript needs it (Large never does).
//
// The bound, 300 + 12n, is 3.3–3.8× that at both sizes, so one extra
// allocation per pair (26 per loop) or per value fails it at n=36.
func TestParallelAllocOverhead(t *testing.T) {
	// A GC cycle mid-measurement drops the engine's pooled worker
	// arenas (sync.Pool), and the refilled arenas re-grow their scratch
	// tables — noise proportional to program size that has nothing to
	// do with the fan-out's own behavior. Measure steady state instead.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, n := range []int{12, 36} {
		src := progen.Large(n)
		seqAn := NewAnalyzer(Options{Parallel: 1})
		parAn := NewAnalyzer(Options{Parallel: 4})
		run := func(an *Analyzer) float64 {
			if _, err := an.Analyze(src); err != nil { // warm the arena
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := an.Analyze(src); err != nil {
					t.Fatal(err)
				}
			})
		}
		seq, par := run(seqAn), run(parAn)
		overhead := par - seq
		bound := float64(300 + 12*n)
		if raceEnabled {
			// Under -race, sync.Pool.Put drops one item in four at random,
			// so a run's arena checkouts (one sequential, up to four at
			// Parallel=4) sometimes start from fresh arenas whose scratch
			// tables regrow with program size: the difference swings from
			// -284 to 1766 allocs at n=36 with GOMAXPROCS=4. Race builds
			// keep the wider 3×(800+25n) as a sanity check; the bound
			// above is the tight one.
			bound = float64(3 * (800 + 25*n))
		}
		if overhead > bound {
			t.Errorf("Large(%d): parallel overhead %.0f allocs (seq %.0f, par %.0f), want ≤ %.0f",
				n, overhead, seq, par, bound)
		}
		t.Logf("Large(%d): seq %.0f, par %.0f allocs per run (overhead %.0f, bound %.0f)", n, seq, par, overhead, bound)
	}
}

// TestColdAnalyzeBudget pins the post-squeeze cold-analysis cost on the
// paper's E6: the full uncached pipeline must stay within 400
// allocations, and — timing being load-sensitive, checked only without
// the race detector — within 100µs per run at its best.
func TestColdAnalyzeBudget(t *testing.T) {
	src := paper.ByID("E6").Source
	an := NewAnalyzer(Options{})
	if _, err := an.Analyze(src); err != nil { // warm the arena
		t.Fatal(err)
	}
	// Steady state: a GC mid-measurement drops the pooled arena and the
	// refill's table growth would be charged to one unlucky run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := an.Analyze(src); err != nil {
			t.Fatal(err)
		}
	})
	allocBound := 400.0
	if raceEnabled {
		// Race-detector shadow allocations inflate the count by ~20%;
		// the production bound is the non-race number.
		allocBound *= 1.5
	}
	if allocs > allocBound {
		t.Errorf("cold Analyze(E6) = %.0f allocs per run, want ≤ %.0f", allocs, allocBound)
	}

	if raceEnabled {
		t.Logf("%.0f allocs per run (bound %.0f); timing check skipped under -race", allocs, allocBound)
		return
	}
	const nsBound = 100_000
	best := time.Duration(1 << 62)
	for attempt := 0; attempt < 5; attempt++ {
		const iters = 50
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := an.Analyze(src); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start) / iters; d < best {
			best = d
		}
		if best.Nanoseconds() <= nsBound {
			break
		}
	}
	if best.Nanoseconds() > nsBound {
		t.Errorf("cold Analyze(E6) best of 5 = %v per run, want ≤ %v", best, time.Duration(nsBound))
	}
	t.Logf("%.0f allocs per run (bound %.0f), best %v per run (bound %v)",
		allocs, allocBound, best, time.Duration(nsBound))
}
