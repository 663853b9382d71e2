// Command depclass runs the §6 data dependence analysis over a
// mini-language program and prints every dependence with its direction
// vector, wrap-around flags, and periodic distance constraints.
//
// Usage:
//
//	depclass [-input] [-classes] [-dot] [-pi] [-why] [-jobs n]
//	         [-parallel n] [-cache-dir dir] [-watch] [-stats]
//	         [-trace file] [-jsonl file] [-explain var]
//	         [-debug-addr addr] [file|dir ...]
//
// With no arguments, one program is read from standard input; each
// argument may be a program file, an examples-style .go file (the
// embedded program is extracted), or a directory walked recursively
// for such .go files. Multiple programs are analyzed as one batch —
// concurrently with -jobs > 1 — and reported in input order under
// per-file headers; one failing input does not stop the rest.
// -parallel additionally splits each analysis's dependence-pair sweep
// across workers (0, the default, uses one per CPU, divided across the
// -jobs workers when batching); results are identical at every width. -why
// prints each dependence's provenance: the paper rule behind its
// decision procedure and the classification chains of both subscripts.
//
// -cache-dir persists analysis artifacts in a content-addressed store:
// re-running over an unchanged (or merely reformatted, or α-renamed)
// corpus answers from disk without re-analyzing, even across
// processes. -watch keeps the command running, polling the inputs and
// re-analyzing only programs whose content changed — with -cache-dir,
// a restarted watch starts warm.
package main

import (
	"flag"
	"fmt"
	"os"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/depend"
)

var (
	withInput   = flag.Bool("input", false, "also report read-read (input) dependences")
	withClasses = flag.Bool("classes", false, "also print the classification report")
	asDOT       = flag.Bool("dot", false, "emit the dependence graph in Graphviz DOT syntax")
	piBlocks    = flag.Bool("pi", false, "print each loop's π-blocks (loop distribution partition)")
	why         = flag.Bool("why", false, "print the provenance of every dependence edge")
	jobs        = flag.Int("jobs", 1, "analyze inputs concurrently on `n` workers (0 = one per CPU)")
	tel         cliutil.Telemetry
	cache       cliutil.CacheFlags
	watch       cliutil.WatchFlags
	par         cliutil.ParallelFlag
)

func main() {
	tel.RegisterObsFlags()
	cache.Register()
	watch.Register()
	par.Register()
	cliutil.ParseFlags("depclass")
	if err := tel.Start(); err != nil {
		fatal(err)
	}
	opts := beyondiv.Options{
		Dependences: depend.Options{IncludeInput: *withInput},
		Jobs:        *jobs,
	}
	tel.Apply(&opts)
	par.Apply(&opts)
	// -dot and -pi walk the live dependence graph objects, which a
	// decoded disk artifact does not carry: keep the store warm but
	// analyze live.
	cache.Apply(&opts, *asDOT || *piBlocks)
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
			if c := cliutil.Report("depclass", fmt.Errorf("%s: %w", srcs[i].Path, r.Err)); c > exit {
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
				cliutil.Report("depclass", fmt.Errorf("%s: %w", src.Path, err))
				return
			}
			render(prog)
		})
}

func render(prog *beyondiv.Program) {
	if *asDOT {
		fmt.Print(prog.Deps.DOT())
		return
	}
	if *withClasses {
		fmt.Print(prog.ClassificationReport())
		fmt.Println()
	}
	fmt.Print(prog.DependenceReport())
	if *why {
		fmt.Println()
		fmt.Print(prog.ExplainAllDeps())
	}
	if tel.Explain != "" {
		if out := prog.Explain(tel.Explain); out != "" {
			fmt.Println()
			fmt.Print(out)
		} else {
			fmt.Printf("\nno classified variable matches %q\n", tel.Explain)
		}
	}
	if *piBlocks {
		for _, l := range prog.Loops.InnerToOuter() {
			blocks := depend.PiBlocks(prog.Deps, l)
			if blocks == nil {
				continue
			}
			fmt.Printf("\nπ-blocks of %s (distribution order):\n", l.Label)
			for i, b := range blocks {
				shape := "acyclic (vectorizable)"
				if b.Cyclic {
					shape = "cyclic (stays a loop)"
				}
				fmt.Printf("  block %d [%s]:", i+1, shape)
				for _, st := range b.Stores {
					fmt.Printf(" %s[%s]", st.Var, st.Args[0])
				}
				fmt.Println()
			}
		}
	}
}

func fatal(err error) { cliutil.Fatal("depclass", err) }
