// Command ivclass classifies every scalar of a mini-language program:
// the paper's unified induction-variable analysis, printed per loop in
// tuple notation.
//
// Usage:
//
//	ivclass [-ssa] [-nested] [-json] [-jobs n] [-cache-dir dir]
//	        [-watch] [-stats] [-trace file] [-jsonl file]
//	        [-explain var] [-debug-addr addr] [file|dir ...]
//
// With no arguments, one program is read from standard input; each
// argument may be a program file, an examples-style .go file (the
// embedded program is extracted), or a directory walked recursively
// for such .go files. Multiple programs are analyzed as one batch —
// concurrently with -jobs > 1 — and reported in input order under
// per-file headers; one failing input does not stop the rest. -explain
// prints the provenance chain (paper rule, SCR, feeding
// classifications) that classified the named variable.
//
// -cache-dir persists analysis artifacts in a content-addressed store:
// re-running over an unchanged (or merely reformatted, or α-renamed)
// corpus answers from disk without re-analyzing, even across
// processes. -watch keeps the command running, polling the inputs and
// re-analyzing only programs whose content changed — with -cache-dir,
// a restarted watch starts warm.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/ir"
)

var (
	dumpSSA = flag.Bool("ssa", false, "also dump the SSA form")
	nested  = flag.Bool("nested", false, "print nested tuples for multiloop IVs (outer-to-inner substitution)")
	asJSON  = flag.Bool("json", false, "emit the report as JSON")
	jobs    = flag.Int("jobs", 1, "analyze inputs concurrently on `n` workers (0 = one per CPU)")
	tel     cliutil.Telemetry
	cache   cliutil.CacheFlags
	watch   cliutil.WatchFlags
)

func main() {
	tel.RegisterObsFlags()
	cache.Register()
	watch.Register()
	cliutil.ParseFlags("ivclass")
	if err := tel.Start(); err != nil {
		fatal(err)
	}
	opts := beyondiv.Options{
		SkipDependences: true,
		Jobs:            *jobs,
	}
	tel.Apply(&opts)
	// -ssa and -nested walk the live SSA graph, which a decoded disk
	// artifact does not carry: keep the store warm but analyze live.
	cache.Apply(&opts, *dumpSSA || *nested)
	if watch.Watch {
		if err := watchLoop(opts); err != nil {
			fatal(err)
		}
		if err := tel.Finish(os.Stderr); err != nil {
			fatal(err)
		}
		return
	}
	srcs, err := cliutil.ReadPrograms(flag.Args())
	if err != nil {
		fatal(err)
	}
	results := cliutil.AnalyzeSources(srcs, opts)
	exit := 0
	for i, r := range results {
		if len(srcs) > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("==== %s ====\n", srcs[i].Path)
		}
		if r.Err != nil {
			if c := cliutil.Report("ivclass", fmt.Errorf("%s: %w", srcs[i].Path, r.Err)); c > exit {
				exit = c
			}
			continue
		}
		render(r.Program)
	}
	if err := tel.Finish(os.Stderr); err != nil {
		fatal(err)
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

// watchLoop re-analyzes the argument corpus as it changes, rendering
// each changed program under its file header.
func watchLoop(opts beyondiv.Options) error {
	return cliutil.Watch(flag.Args(), opts, cliutil.WatchConfig{Interval: watch.Interval},
		func(src cliutil.Source, prog *beyondiv.Program, err error) {
			fmt.Printf("==== %s ====\n", src.Path)
			if err != nil {
				cliutil.Report("ivclass", fmt.Errorf("%s: %w", src.Path, err))
				return
			}
			render(prog)
		})
}

func render(prog *beyondiv.Program) {
	if *dumpSSA {
		fmt.Print(prog.SSA.Func)
		fmt.Println()
	}
	switch {
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(prog.ReportData()); err != nil {
			fatal(err)
		}
	case *nested:
		// Nested rendering.
		for _, l := range prog.Loops.InnerToOuter() {
			fmt.Printf("loop %s (depth %d) trip=%s\n", l.Label, l.Depth, prog.IV.TripCount(l))
			m := prog.IV.LoopClassifications(l)
			vals := make([]*ir.Value, 0, len(m))
			for v := range m {
				if v.Name != "" {
					vals = append(vals, v)
				}
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i].ID < vals[j].ID })
			for _, v := range vals {
				fmt.Printf("  %s = %s\n", v, prog.IV.NestedString(m[v]))
			}
		}
	default:
		fmt.Print(prog.ClassificationReport())
	}
	if tel.Explain != "" {
		if out := prog.Explain(tel.Explain); out != "" {
			fmt.Println()
			fmt.Print(out)
		} else {
			fmt.Printf("\nno classified variable matches %q\n", tel.Explain)
		}
	}
}

func fatal(err error) { cliutil.Fatal("ivclass", err) }
