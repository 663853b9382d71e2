package depend

import (
	"maps"

	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/par"
)

// parMinPairs is the work-size threshold of the parallel pair sweep:
// below this many pairs the fan-out setup (pair materialization,
// worker testers, recorder forks) outweighs the tests themselves, so
// small programs always take the allocation-free sequential sweep.
const parMinPairs = 32

// parChunkPairs is the dispatch grain: workers claim pairs this many
// at a time, polling cancellation at each chunk boundary.
const parChunkPairs = 16

// testParallel runs the pair sweep concurrently, returning false
// (nothing done) when the fan-out is off or under the threshold.
//
// Determinism: the coordinator first prewarms, sequentially, every
// per-access memo the tests share — the postdominator tree, subscript
// classifications (with wrap-around unwrapping), iteration forms and
// their equation text. Those derivations are the only writes pair
// testing ever makes to the iv.Analysis (lazy exit-value caching) and
// to the accesses themselves, and they are observationally silent: no
// budget steps, no counters, no provenance events, in both paths.
// After the prewarm, workers only read shared state, the previous
// result's verdict table included; each worker owns its own
// gen-stamped equation scratch, its own budget drawing the shared
// phase sub-pool, a recorder fork and a verdict table, merged into the
// run's after the join. Per-pair results land in a slot indexed by the
// canonical pair enumeration — array name, then (a.Order, b.Order) —
// and merge back in that order, so Deps and Independent come out
// byte-identical to the sequential sweep.
func testParallel(r *Result, t *tester, byArray map[string][]*Access, arrays []string, lim guard.Limits, workers int) bool {
	if workers <= 1 {
		return false
	}
	n := 0
	for _, name := range arrays {
		list := byArray[name]
		for i := 0; i < len(list); i++ {
			for j := i; j < len(list); j++ {
				if !skipPair(list[i], list[j], i == j, t.opts) {
					n++
				}
			}
		}
	}
	if n < parMinPairs {
		return false
	}

	type pairJob struct{ a, b *Access }
	pairs := make([]pairJob, 0, n)
	for _, name := range arrays {
		list := byArray[name]
		for i := 0; i < len(list); i++ {
			for j := i; j < len(list); j++ {
				if !skipPair(list[i], list[j], i == j, t.opts) {
					pairs = append(pairs, pairJob{list[i], list[j]})
				}
			}
		}
	}

	// Sequential prewarm of everything lazily shared.
	t.postDom()
	for _, ac := range r.Accesses {
		t.subscriptClass(ac)
		if t.formOf(ac, ac.unwrapped) != nil {
			ac.equationSide(0)
			ac.equationSide(1)
		}
	}

	chunks := (n + parChunkPairs - 1) / parChunkPairs
	if workers > chunks {
		workers = chunks
	}

	// Per-worker testers: shared analysis, postdominators, options and
	// previous verdicts; private budget, equation scratch, recorder and
	// verdict table. Worker 0 reuses the run's own scratch (idle during
	// the fan-out); the rest take fresh tables. Drawing those from the
	// engine's arena pool instead would hand a later run a worker's
	// arena, whose front-end tables then regrow: +480 allocations per
	// run on progen.Large(36) at Parallel=4.
	lim = lim.ShareSteps()
	wts := make([]*tester, workers)
	for w := range wts {
		wt := &tester{a: t.a, opts: t.opts, budget: lim.Budget("depend"), pdom: t.pdom, prev: t.prev, scr: t.scr}
		if w > 0 {
			wt.scr = &dependScratch{}
		}
		wts[w] = wt
	}

	r.fanout.pairs, r.fanout.workers = n, workers

	deps := make([][]*Dependence, n)
	indep := make([]bool, n)
	par.Run("depend", workers, chunks, t.rec, func(w int, wrec *obs.Recorder, c int) {
		wt := wts[w]
		wt.rec = wrec
		if ce := lim.Cancelled("depend"); ce != nil {
			panic(ce)
		}
		lo := c * parChunkPairs
		hi := lo + parChunkPairs
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			deps[i], indep[i] = wt.testPair(pairs[i].a, pairs[i].b)
		}
	})

	for i := range pairs {
		r.Deps = append(r.Deps, deps[i]...)
		if indep[i] {
			r.Independent++
		}
	}
	// Equal keys hold equal verdicts, so the merge order is immaterial.
	for _, wt := range wts {
		if t.verdicts == nil {
			t.verdicts = wt.verdicts
			continue
		}
		maps.Copy(t.verdicts, wt.verdicts)
	}
	return true
}
