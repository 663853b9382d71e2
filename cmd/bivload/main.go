// Command bivload drives the analysis pipeline under sustained load:
// it analyzes a corpus of programs in a loop for a fixed duration,
// publishing process-lifetime metrics and a flight recorder of recent
// runs as it goes. It exists to exercise the observability stack the
// way a long-running service would — point -debug-addr at a port,
// curl /metrics for per-phase p50/p99 latencies while the load runs,
// /lastruns for the most recent analyses — and doubles as a quick
// steady-state throughput probe.
//
// Usage:
//
//	bivload [-d duration] [-jobs n] [-parallel n] [-cache n]
//	        [-cache-dir dir] [-inject phase] [-hold] [-debug-addr addr]
//	        [-stats] [-trace file] [file|dir ...]
//	bivload -addr host:port [-d duration] [-conc n] [-seed n]
//	        [-inject phase] [-bench-json file]
//
// With -addr, bivload becomes the chaos client for a running bivd
// instead of driving the pipeline in-process: -conc workers send a
// mixed stream of hot (cacheable) and cold programs, parse errors,
// guard-tripping inputs, 1ms-deadline requests, slow-loris bodies,
// mid-request hangups and — with -inject — server-side contained
// faults, then report latency percentiles, throughput, shed rate and
// the full error taxonomy (optionally as JSON to -bench-json). The
// run fails (exit 1) if the server became unreachable or returned any
// unexplained 5xx — a 500 whose body does not attribute the failure.
//
// With no arguments, one program is read from standard input; each
// argument may be a program file, an examples-style .go file (the
// embedded program is extracted), or a directory walked recursively
// for such files. Every iteration analyzes the whole corpus as one
// batch over -jobs workers; -parallel additionally splits each
// analysis's dependence-pair sweep across workers (0, the default,
// uses one per CPU, divided across the -jobs workers so the two tiers
// compose instead of oversubscribing). -cache gives the analyzer a result cache
// of that capacity, turning steady state into cache hits (useful for
// watching the hit counters move). -inject makes one extra analysis
// per iteration fail with a contained fault in the named phase, so
// /lastruns always has a failed run to look at. -hold keeps the
// debug server (and the process) alive after the load finishes, until
// interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/serve"
)

var (
	duration = flag.Duration("d", 5*time.Second, "how long to sustain the load")
	jobs     = flag.Int("jobs", 0, "analyze each batch on `n` workers (0 = one per CPU)")
	cacheN   = flag.Int("cache", 0, "result-cache capacity (0 = no cache)")
	inject   = flag.String("inject", "", "fault one extra run per iteration in `phase` (e.g. sccp), exercising contained-fault capture")
	hold     = flag.Bool("hold", false, "keep serving -debug-addr after the load finishes, until interrupted")
	addr     = flag.String("addr", "", "chaos-test a running bivd at `host:port` over HTTP instead of loading in-process")
	conc     = flag.Int("conc", 8, "client workers in -addr mode")
	seed     = flag.Int64("seed", 1, "traffic-mix seed in -addr mode")
	benchOut = flag.String("bench-json", "", "write the -addr mode report as JSON to `file`")
	tel      cliutil.Telemetry
	cache    cliutil.CacheFlags
	par      cliutil.ParallelFlag
)

func main() {
	tel.RegisterObsFlags()
	cache.Register()
	par.Register()
	cliutil.ParseFlags("bivload")
	if *addr != "" {
		chaos()
		return
	}
	srcs, err := cliutil.ReadPrograms(flag.Args())
	if err != nil {
		fatal(err)
	}
	if err := tel.Start(); err != nil {
		fatal(err)
	}

	opts := beyondiv.Options{Jobs: *jobs, CacheEntries: *cacheN}
	tel.Apply(&opts)
	par.Apply(&opts)
	cache.Apply(&opts, false)
	// The summary below reads the registry, so run with one even when
	// no debug server asked for it.
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}
	an := beyondiv.NewAnalyzer(opts)

	var faulty *beyondiv.Analyzer
	if *inject != "" {
		fopts := opts
		// Faults must not be masked by the in-memory cache or the disk
		// store (a decoded hit would never reach the injected phase).
		fopts.CacheEntries, fopts.CacheDir = 0, ""
		fopts.Limits.Inject = guard.PanicIn(*inject)
		faulty = beyondiv.NewAnalyzer(fopts)
	}

	texts := make([]string, len(srcs))
	for i, s := range srcs {
		texts[i] = s.Text
	}

	start := time.Now()
	iterations, runs, errs := 0, 0, 0
	for time.Since(start) < *duration {
		for _, r := range an.AnalyzeAll(texts) {
			runs++
			if r.Err != nil {
				errs++
			}
		}
		if faulty != nil {
			if _, err := faulty.Analyze(texts[0]); err != nil {
				errs++
			}
			runs++
		}
		iterations++
	}
	an.Flush()
	elapsed := time.Since(start)

	fmt.Printf("%d iterations over %d programs in %s: %d analyses (%.0f/s), %d errors\n",
		iterations, len(srcs), elapsed.Round(time.Millisecond), runs,
		float64(runs)/elapsed.Seconds(), errs)
	snap := reg.Snapshot()
	if h, ok := snap.Hists["phase.analyze"]; ok && h.Count > 0 {
		fmt.Printf("analyze latency p50 %s  p90 %s  p99 %s\n",
			time.Duration(h.P50), time.Duration(h.P90), time.Duration(h.P99))
	}
	if hits := snap.Counters["engine.cache.hit"]; hits > 0 {
		fmt.Printf("cache: %d hits, %d misses\n", hits, snap.Counters["engine.cache.miss"])
	}

	if *hold && tel.DebugURL() != "" {
		fmt.Fprintf(os.Stderr, "holding; debug server at %s (interrupt to exit)\n", tel.DebugURL())
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
	}
	if err := tel.Finish(os.Stderr); err != nil {
		fatal(err)
	}
}

func fatal(err error) { cliutil.Fatal("bivload", err) }

// chaos is -addr mode: drive a running bivd with the serve package's
// chaos mix and report how it held up.
func chaos() {
	if args := flag.Args(); len(args) != 0 {
		fmt.Fprintf(os.Stderr, "bivload: -addr mode takes no positional arguments (got %q)\n", args)
		os.Exit(1)
	}
	report, err := serve.RunLoad(serve.LoadConfig{
		Addr:        *addr,
		Duration:    *duration,
		Concurrency: *conc,
		Inject:      *inject,
		Seed:        *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d requests in %dms (%.0f/s): %d ok, %d shed (%.1f%%), %d client errors\n",
		report.Requests, report.DurationMS, report.Throughput,
		report.OK, report.Shed, 100*report.ShedRate, report.ClientErrs)
	fmt.Printf("latency p50 %dus  p99 %dus\n", report.P50US, report.P99US)
	fmt.Printf("by status: %v\nby kind:   %v\nby class:  %v\n",
		report.ByStatus, report.ByKind, report.ByClass)
	if *benchOut != "" {
		if err := report.WriteFile(*benchOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bivload: report written to %s\n", *benchOut)
	}
	if report.Unexplained > 0 {
		fmt.Fprintf(os.Stderr, "bivload: %d unexplained 5xx responses (no error kind attributed)\n", report.Unexplained)
		os.Exit(1)
	}
}
