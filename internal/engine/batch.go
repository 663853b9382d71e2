package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
)

// Item is one source's outcome in a batch: its position in the input,
// the analyzed state on success, or the *Error that failed it. A
// failure is always the source's own — one source hitting its guard
// ceiling neither aborts nor skews the rest of the batch.
type Item struct {
	Index  int
	Source string
	State  *State
	Err    error
}

// AnalyzeAll fans the sources out over a bounded worker pool (Config.
// Jobs workers, capped at the batch size) and returns one Item per
// source, in input order. Results are deterministic: each source's
// analysis is independent, so the outcome is byte-identical to running
// Analyze sequentially, whatever the worker count.
//
// Telemetry: each worker records into a fork of the configured
// recorder under a "worker N" span; forks merge back in worker order
// once the batch is done, so counters aggregate exactly and no span
// tree is ever written concurrently. Guarding: every source runs under
// the engine's per-source limits.
func (e *Engine) AnalyzeAll(sources []string) []Item {
	return e.AnalyzeAllContext(context.Background(), sources)
}

// AnalyzeAllContext is AnalyzeAll under a caller's context. When ctx
// is cancelled mid-batch, no further sources are scheduled: in-flight
// sources stop cooperatively (returning a *Error wrapping
// *guard.CancelError that names the phase they were cancelled in), and
// every source that never reached a worker carries a batch-attributed
// cancellation error instead of an analysis. The result slice always
// has one entry per input, in input order.
func (e *Engine) AnalyzeAllContext(ctx context.Context, sources []string) []Item {
	par := e.batchPar(len(sources))
	items := make([]Item, len(sources))
	e.fanOut(ctx, "analyze-all", len(sources), func(i int, wrec *obs.Recorder, lim guard.Limits) {
		st, err := e.analyze(sources[i], wrec, lim, par, false)
		items[i] = Item{Index: i, Source: sources[i], State: st, Err: err}
	}, func(i int, ce *guard.CancelError) {
		items[i] = Item{Index: i, Source: sources[i], Err: &Error{Phase: ce.Phase, Err: ce}}
	})
	return items
}

// batchPar is the oversubscription guard between the two concurrency
// tiers: a batch of n sources runs on up to Config.Jobs workers, and
// each source may itself fan out over Config.Parallel workers, so the
// tiers multiply. An auto (Parallel = 0) width is divided by the
// effective batch worker count — GOMAXPROCS split evenly, never below
// one — while an explicitly configured width is honored as given.
func (e *Engine) batchPar(n int) int {
	if e.cfg.Parallel != 0 {
		return e.par
	}
	jobs := e.cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		return e.par
	}
	par := runtime.GOMAXPROCS(0) / jobs
	if par < 1 {
		par = 1
	}
	return par
}

// fanOut runs n indexed work items over the engine's bounded worker
// pool, the shared core of AnalyzeAll and OptimizeAll: one span named
// phase, the engine's limits under the batch's context, and the batch
// counters. The inline single-worker path keeps the configured
// recorder and span shape, the concurrent path forks one recorder per
// worker and absorbs them back in worker order. A cancelled ctx stops
// the dispatcher; every index that was never handed to a worker is
// reported through cancelled (with a batch-attributed
// *guard.CancelError) instead of work, so callers always produce one
// result per input.
func (e *Engine) fanOut(ctx context.Context, phase string, n int,
	work func(i int, wrec *obs.Recorder, lim guard.Limits), cancelled func(i int, ce *guard.CancelError)) {
	rec := e.cfg.Obs
	span := rec.Phase(phase)
	defer span.End()
	s := sink{rec: rec, reg: e.cfg.Metrics}
	lim := e.cfg.Limits
	lim.Ctx = ctx
	jobs := e.cfg.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}
	s.Add("engine.batch", 1)
	s.Add("engine.batch.sources", int64(n))
	s.SetGauge("engine.batch.workers", int64(jobs))
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}

	if jobs <= 1 {
		// Inline: same goroutine, same recorder, same span shape as
		// repeated Analyze calls.
		for i := 0; i < n; i++ {
			if done != nil {
				if ce := (guard.Limits{Ctx: ctx}).Cancelled("batch"); ce != nil {
					cancelled(i, ce)
					continue
				}
			}
			work(i, rec, lim)
		}
		return
	}

	idx := make(chan int)
	recs := make([]*obs.Recorder, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		recs[w] = rec.Fork()
		wg.Add(1)
		go func(w int, wrec *obs.Recorder, lim guard.Limits) {
			defer wg.Done()
			wspan := wrec.Phase(fmt.Sprintf("worker %d", w))
			defer wspan.End()
			for i := range idx {
				work(i, wrec, lim)
			}
		}(w, recs[w], lim)
	}
dispatch:
	for i := 0; i < n; i++ {
		if done == nil {
			idx <- i
			continue
		}
		select {
		case idx <- i:
		case <-done:
			ce := &guard.CancelError{Phase: "batch", Cause: ctx.Err()}
			for j := i; j < n; j++ {
				cancelled(j, ce)
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	for _, wrec := range recs {
		rec.Absorb(wrec)
	}
}
