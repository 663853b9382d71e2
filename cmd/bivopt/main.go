// Command bivopt is the "compiler driver" view of the library: it runs
// the full analysis over programs and reports, per loop, everything an
// optimizer would act on —
//
//   - the §3–§4 classification of every scalar,
//   - §5.2 trip counts,
//   - wrap-around variables that loop peeling would fix (§4.1),
//   - strength-reduction candidates (§1) and, with -apply, the
//     transformation pipeline — peel, interchange, distribution,
//     strength reduction, dead-code sweep, parallel marks, and
//     normalize when -passes names it — run through the engine with
//     clone-on-transform, fixed-point re-analysis and interpreter
//     translation validation after every pass,
//   - §6 dependences, parallelizability, interchange legality and
//     distribution π-blocks for every loop pair/nest.
//
// Usage:
//
//	bivopt [-apply] [-passes list] [-jobs n] [-parallel n]
//	       [-no-validate] [-cache-dir dir] [-stats] [-trace file]
//	       [-jsonl file] [-explain var] [-debug-addr addr]
//	       [-cpuprofile file] [-memprofile file] [file|dir ...]
//
// With no arguments, one program is read from standard input; each
// argument may be a mini-language program, an examples-style .go file
// (the embedded program is extracted), or a directory walked
// recursively for such files. Multiple programs run as one batch —
// concurrently with -jobs > 1 — and report in input order under
// per-file headers; one failing input does not stop the rest.
// -parallel additionally splits each analysis's dependence-pair sweep
// across workers (0, the default, uses one per CPU, divided across the
// -jobs workers when batching); results are identical at every width. -passes
// selects and orders the -apply pipeline (comma-separated; default
// "peel,interchange,distribute,strength,dce,parmark"; "normalize" runs
// only when named). -stats prints phase timings and pipeline counters
// to standard error; -trace writes a Chrome trace-event file; -explain
// prints the provenance chain that classified a variable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/depend"
	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/ssa"
	"beyondiv/internal/xform"
)

var (
	apply      = flag.Bool("apply", false, "run the transformation pipeline and report before/after")
	passesFlag = flag.String("passes", "", "comma-separated -apply pipeline (default: "+strings.Join(xform.DefaultPassNames(), ",")+"; available: "+strings.Join(xform.PassNames(), ",")+")")
	jobs       = flag.Int("jobs", 1, "process inputs concurrently on `n` workers (0 = one per CPU)")
	noValidate = flag.Bool("no-validate", false, "skip interpreter translation validation of -apply rewrites")
	tel        cliutil.Telemetry
	cache      cliutil.CacheFlags
	par        cliutil.ParallelFlag
)

func main() {
	tel.RegisterObsFlags()
	cache.Register()
	par.Register()
	cliutil.ParseFlags("bivopt")
	srcs, err := cliutil.ReadPrograms(flag.Args())
	if err != nil {
		fatal(err)
	}
	if err := tel.Start(); err != nil {
		fatal(err)
	}
	opts := beyondiv.Options{
		Jobs:           *jobs,
		Passes:         passList(*passesFlag),
		SkipValidation: *noValidate,
	}
	tel.Apply(&opts)
	par.Apply(&opts)
	// Every bivopt view walks live analysis objects (loop nest, SSA,
	// dependence graph), which a decoded disk artifact does not carry:
	// the store is write-only here, warming it for readers that render
	// reports.
	cache.Apply(&opts, true)

	exit := 0
	report := func(i int, prog *beyondiv.Program, err error) bool {
		if len(srcs) > 1 {
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("==== %s ====\n", srcs[i].Path)
		}
		if err != nil {
			if c := cliutil.Report("bivopt", fmt.Errorf("%s: %w", srcs[i].Path, err)); c > exit {
				exit = c
			}
			return false
		}
		render(prog)
		return true
	}

	if *apply {
		for i, r := range cliutil.OptimizeSources(srcs, opts) {
			if report(i, resultProgram(r.Result), r.Err) {
				renderApplied(r.Result)
			}
		}
	} else {
		for i, r := range cliutil.AnalyzeSources(srcs, opts) {
			report(i, r.Program, r.Err)
		}
	}

	if err := tel.Finish(os.Stderr); err != nil {
		fatal(err)
	}
	if exit != 0 {
		os.Exit(exit)
	}
}

func passList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func resultProgram(r *beyondiv.OptimizeResult) *beyondiv.Program {
	if r == nil {
		return nil
	}
	return r.Original
}

// render prints the analysis view of one program (pre-transformation
// when -apply is on: the opportunities listed are the ones the pipeline
// then acts on).
func render(prog *beyondiv.Program) {
	fmt.Println("== classification ==")
	fmt.Print(prog.ClassificationReport())

	fmt.Println("\n== dependences ==")
	fmt.Print(prog.DependenceReport())

	if tel.Explain != "" {
		fmt.Printf("\n== explain %s ==\n", tel.Explain)
		if out := prog.Explain(tel.Explain); out != "" {
			fmt.Print(out)
		} else {
			fmt.Printf("no classified variable matches %q\n", tel.Explain)
		}
	}

	fmt.Println("\n== per-loop opportunities ==")
	for _, l := range prog.Loops.InnerToOuter() {
		fmt.Printf("%s:\n", l.Label)

		// Wrap-arounds that peeling would turn into IVs.
		for v, c := range prog.IV.LoopClassifications(l) {
			if c.Kind == iv.WrapAround && v.Name != "" {
				fmt.Printf("  peel candidate: %s is a wrap-around of order %d (§4.1)\n", v.Name, c.Order)
			}
		}

		// Parallelization.
		if ok, blocking := depend.Parallelizable(prog.Deps, l); ok {
			fmt.Printf("  parallelizable: yes\n")
		} else {
			fmt.Printf("  parallelizable: no (%d carried dependences)\n", len(blocking))
		}

		// Distribution.
		if blocks := depend.PiBlocks(prog.Deps, l); len(blocks) > 1 {
			fmt.Printf("  distributes into %d π-blocks\n", len(blocks))
		}

		// Interchange with the direct parent.
		for _, inner := range l.Children {
			if ok, _ := depend.InterchangeLegal(prog.Deps, l, inner); ok {
				fmt.Printf("  interchange %s<->%s: legal\n", l.Label, inner.Label)
			} else if dists, okD := depend.DistanceVectors2(prog.Deps, l, inner); okD {
				if tm, okT := depend.FindSkewedInterchange(dists, 8); okT {
					fmt.Printf("  interchange %s<->%s: illegal, but unimodular %s repairs it\n",
						l.Label, inner.Label, tm)
				} else {
					fmt.Printf("  interchange %s<->%s: illegal\n", l.Label, inner.Label)
				}
			} else {
				fmt.Printf("  interchange %s<->%s: illegal\n", l.Label, inner.Label)
			}
		}
	}
}

// renderApplied prints what the -apply pipeline did: per-pass rewrite
// stats per fixed-point round, the dynamic multiplication probe before
// and after, and the classification of the transformed program (where
// strength-reduced recurrences reappear as fresh linear IVs).
func renderApplied(r *beyondiv.OptimizeResult) {
	fmt.Println("\n== transformation pipeline ==")
	if len(r.Stats) == 0 {
		fmt.Println("no rewrites applied (pipeline at fixed point immediately)")
		return
	}
	for _, s := range r.Stats {
		fmt.Printf("round %d: %-11s %d rewrites\n", s.Round, s.Name, s.Rewrites)
	}
	fmt.Printf("%d rewrites in %d rounds; %d translation validations passed\n",
		r.Rewrites, r.Rounds, r.Validations)
	if len(r.ParallelLoops) > 0 {
		how := "chunked execution validated against sequential"
		if r.Validations == 0 {
			how = "validation skipped: marks trusted"
		}
		fmt.Printf("marked parallel: %s (%s)\n", strings.Join(r.ParallelLoops, ", "), how)
	}

	before := countMuls(r.Original.SSA)
	after := countMuls(r.Program.SSA)
	fmt.Printf("dynamic multiplies %d -> %d (n=16 probe)\n", before, after)

	fmt.Println("\n== classification (transformed) ==")
	fmt.Print(r.Program.ClassificationReport())
}

// countMuls executes the program on a fixed probe input and counts the
// multiplications evaluated — the dynamic effect of strength reduction.
func countMuls(info *ssa.Info) int {
	muls := 0
	_, err := interp.RunSSAHooked(info, interp.Config{
		Params:   map[string]int64{"n": 16, "m": 16},
		MaxSteps: 500_000,
	}, interp.Hooks{OnEval: func(v *ir.Value, val int64) {
		if v.Op == ir.OpMul {
			muls++
		}
	}})
	if err != nil {
		return -1
	}
	return muls
}

func fatal(err error) { cliutil.Fatal("bivopt", err) }
