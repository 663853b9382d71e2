// Package par is the intra-run fan-out primitive behind the parallel
// dependence sweep: a bounded worker pool that forks the phase's
// recorder per worker, dispatches indexed work units dynamically, and
// joins with deterministic telemetry and panic semantics.
//
// Determinism contract: work(w, wrec, i) must write only worker-local
// state plus a caller-owned per-index result slot; the caller merges
// results in index order after Run returns, which is what keeps the
// parallel output byte-identical to the sequential path. Guard limit
// hits and cancellations travel as panics inside workers (as they do
// sequentially); Run captures them and re-panics the one with the
// lowest work-unit index on the calling goroutine, so the engine's
// phase containment sees the same failure whichever worker raced
// ahead.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"

	"beyondiv/internal/obs"
)

// Run executes work(w, wrec, i) for every i in [0, n) across workers
// goroutines (capped at n). Each worker records into a fork of rec
// under a "<phase> worker N" span; forks are absorbed in worker order
// after the join. After the first panic no further units are
// dispatched, in-flight units finish (or panic too), and the panic
// from the lowest index is rethrown here.
func Run(phase string, workers, n int, rec *obs.Recorder,
	work func(w int, wrec *obs.Recorder, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(0, rec, i)
		}
		return
	}

	var (
		next   atomic.Int64 // next unit to claim
		failed atomic.Bool  // stop claiming once any worker panicked
		wg     sync.WaitGroup

		mu       sync.Mutex
		panicVal any
		panicIdx int
	)
	recs := make([]*obs.Recorder, workers)
	for w := 0; w < workers; w++ {
		recs[w] = rec.Fork()
		wg.Add(1)
		go func(w int, wrec *obs.Recorder) {
			defer wg.Done()
			wspan := wrec.Phase(fmt.Sprintf("%s worker %d", phase, w))
			defer wspan.End()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							failed.Store(true)
							mu.Lock()
							if panicVal == nil || i < panicIdx {
								panicVal, panicIdx = r, i
							}
							mu.Unlock()
						}
					}()
					work(w, wrec, i)
				}()
			}
		}(w, recs[w])
	}
	wg.Wait()
	for _, wrec := range recs {
		rec.Absorb(wrec)
	}
	if panicVal != nil {
		panic(panicVal)
	}
}
