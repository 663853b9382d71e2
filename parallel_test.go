// Parallel-tier allocation tests. The intra-run fan-out is the
// dependence tester's pair sweep: the equivalence matrix holds it
// invisible in results, these near-invisible in allocations
// (per-worker setup, not per-pair).
package beyondiv

import (
	"runtime/debug"
	"testing"

	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

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
// allocations. Its latency is the benchmark's concern (E6 is in the
// corpus workload, whose latency_p50_ms and latency_p99_ms carry the
// no-regression bound), not a wall-clock assertion here.
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
	t.Logf("%.0f allocs per run (bound %.0f)", allocs, allocBound)
}
