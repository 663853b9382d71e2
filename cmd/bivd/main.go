// Command bivd is the analysis daemon: the Beyond Induction Variables
// pipeline served over HTTP/JSON, built to stay up under hostile or
// merely excessive traffic. One port carries the /v1 API and the full
// debug surface (/metrics, /healthz, /lastruns, /debug/pprof).
//
// Usage:
//
//	bivd [-addr host:port] [-workers n] [-queue n] [-jobs n]
//	     [-parallel n] [-cache n] [-cache-dir dir] [-cache-max-bytes n]
//	     [-timeout d] [-max-timeout d] [-read-timeout d]
//	     [-drain-timeout d] [-poison n] [-inject]
//
// Endpoints (all POST, JSON bodies):
//
//	/v1/analyze   {"source": "...", "timeout_ms": 500}
//	/v1/optimize  {"source": "..."}
//	/v1/explain   {"source": "...", "var": "j", "deps": true}
//	/v1/batch     {"sources": ["...", ...]}
//
// Robustness model: -workers requests analyze concurrently, -queue more
// may wait, and everything beyond that is shed immediately with 429 +
// Retry-After. Every request runs under a deadline (-timeout unless the
// body asks, capped at -max-timeout) threaded into the engine's
// cooperative cancellation, so a hung client or an expensive input
// cannot pin a worker. -parallel sets the intra-run fan-out width — how
// many workers one analysis may split its dependence pairs across —
// for every request; bodies cannot change it. It defaults to 1: a
// daemon already runs -workers × -jobs analyses concurrently, and
// splitting each of those further oversubscribes the machine; raise it
// only on big machines serving few, large requests. -cache-dir adds a
// persistent artifact store under the in-memory cache: a restarted
// daemon answers repeat (or reformatted, or α-renamed) sources from
// disk without re-analysis, and the engine.store.* counters on
// /metrics show the tier working. Analyzer panics are contained
// per-request into structured 500s with phase attribution, and the
// faulting source's hash is poisoned (-poison entries) so replayed
// crashers are refused from cache. SIGTERM/SIGINT flips /healthz to draining, stops
// admission, waits up to -drain-timeout for in-flight work, flushes a
// final metrics summary to stderr, and exits 0 on a clean drain
// (1 otherwise).
//
// -inject enables the request bodies' "inject" field (a named phase
// panics server-side, contained) for the chaos harness; leave it off in
// real deployments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/serve"
)

var (
	addr         = flag.String("addr", "localhost:7070", "listen address for the API and debug surface")
	workers      = flag.Int("workers", 4, "requests analyzed concurrently (admission slots)")
	queue        = flag.Int("queue", 0, "requests allowed to wait for a slot (0 = 4x workers); beyond this, shed with 429")
	jobs         = flag.Int("jobs", 2, "worker pool size inside one /v1/batch request")
	parallel     = flag.Int("parallel", 1, "intra-run fan-out width of each analysis's dependence-pair sweep (0 = one per CPU)")
	cacheN       = flag.Int("cache", 1024, "result-cache capacity shared by all requests (0 = no cache)")
	cacheDir     = flag.String("cache-dir", "", "persist analysis artifacts in a content-addressed store under `dir`, surviving restarts")
	cacheMax     = flag.Int64("cache-max-bytes", 0, "size budget of -cache-dir in `bytes` (0 = 256 MiB)")
	timeout      = flag.Duration("timeout", 10*time.Second, "per-request deadline when the body names none")
	maxTimeout   = flag.Duration("max-timeout", 60*time.Second, "cap on body-requested timeout_ms")
	readTimeout  = flag.Duration("read-timeout", 10*time.Second, "deadline for one request to arrive in full (slow-loris defense)")
	drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests")
	poisonN      = flag.Int("poison", 128, "poison-cache entries (faulting sources refused on replay; negative = off)")
	inject       = flag.Bool("inject", false, "honor the request bodies' \"inject\" fault-injection field (chaos testing only)")
)

func main() {
	cliutil.ParseFlags("bivd")
	if args := flag.Args(); len(args) != 0 {
		fmt.Fprintf(os.Stderr, "bivd: unexpected arguments %q (the daemon takes no positional arguments)\n", args)
		os.Exit(1)
	}

	reg := metrics.NewRegistry()
	fl := metrics.NewFlight(64, 16)
	srv := serve.New(serve.Config{
		Options: beyondiv.Options{
			Jobs:          *jobs,
			Parallel:      *parallel,
			CacheEntries:  *cacheN,
			CacheDir:      *cacheDir,
			CacheMaxBytes: *cacheMax,
			Metrics:       reg,
			Flight:        fl,
		},
		MaxInFlight:    *workers,
		MaxQueue:       *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		PoisonCapacity: *poisonN,
		AllowInject:    *inject,
	})

	ds, err := debugserv.ServeWith(*addr, reg, fl, debugserv.Options{
		Health:      srv.Health,
		Routes:      srv.Register,
		ReadTimeout: *readTimeout,
	})
	if err != nil {
		cliutil.Fatal("bivd", err)
	}
	fmt.Fprintf(os.Stderr, "bivd listening on http://%s (%d workers, queue %d)\n",
		ds.Addr(), *workers, max(*queue, 4**workers))

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "bivd: %s; draining (up to %s)\n", sig, *drainTimeout)

	// Drain order: stop admitting (healthz flips to draining, queued
	// waiters get 503), wait for in-flight analyses, then let the HTTP
	// layer finish writing responses before the listener dies.
	clean := srv.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = ds.Shutdown(ctx)
	flush(reg)
	if !clean {
		fmt.Fprintf(os.Stderr, "bivd: drain deadline expired with requests still in flight\n")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "bivd: drained clean")
}

// flush writes the final request accounting to stderr — the process is
// exiting, so this is the last chance to see what it served.
func flush(reg *metrics.Registry) {
	snap := reg.Snapshot()
	c := snap.Counters
	fmt.Fprintf(os.Stderr, "bivd: served %d requests: %d ok, %d shed, %d faults, %d cancelled/deadline, %d rejected draining\n",
		c["serve.req"], c["serve.ok"], c["serve.shed"], c["serve.err.fault"],
		c["serve.err.canceled"]+c["serve.err.deadline"], c["serve.rejected.draining"])
	for _, ep := range []string{"analyze", "optimize", "explain", "batch"} {
		if h, ok := snap.Hists["serve.latency."+ep]; ok && h.Count > 0 {
			fmt.Fprintf(os.Stderr, "bivd: %s latency p50 %s  p99 %s  (%d requests)\n",
				ep, time.Duration(h.P50), time.Duration(h.P99), h.Count)
		}
	}
}
