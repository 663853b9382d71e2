// Command paperrepro regenerates every figure and table of "Beyond
// Induction Variables" (Wolfe, PLDI 1992) from this implementation:
// the classification of each example loop (Figures 1–10, L1–L24), the
// §4.3 closed-form table with its Vandermonde matrices, the §5.2 trip
// counts, and the §6 dependence examples. Expected values (from the
// paper, re-derived where the scan is unreadable — see DESIGN.md) are
// printed alongside the computed ones.
//
// Usage:
//
//	paperrepro [-id E6] [-q] [-stats] [-trace file] [-jsonl file]
//	           [-cpuprofile file] [-memprofile file] [-debug-addr addr]
//
// With -stats or -trace, one recorder is shared across the whole
// corpus, so the counters aggregate every experiment's pipeline.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/matrix"
	"beyondiv/internal/paper"
	"beyondiv/internal/rational"
)

var (
	only  = flag.String("id", "", "run a single experiment id (e.g. E6)")
	quiet = flag.Bool("q", false, "suppress program sources")
	tel   cliutil.Telemetry
	// classes analyzes the corpus, which reads only classifications;
	// deps also runs the dependence pass the §6 examples print. Both
	// carry the command's telemetry.
	classes, deps *beyondiv.Analyzer
)

func main() {
	tel.RegisterObsFlags()
	cliutil.ParseFlags("paperrepro")
	if err := tel.Start(); err != nil {
		cliutil.Fatal("paperrepro", err)
	}
	opts := beyondiv.Options{SkipDependences: true}
	tel.Apply(&opts)
	classes = beyondiv.NewAnalyzer(opts)
	opts.SkipDependences = false
	deps = beyondiv.NewAnalyzer(opts)
	failures := 0
	type row struct {
		id, name string
		checks   int
		bad      int
	}
	var rows []row
	for _, p := range paper.Corpus {
		if *only != "" && p.ID != *only {
			continue
		}
		bad := runProgram(&p)
		failures += bad
		rows = append(rows, row{p.ID, p.Name, len(p.Expect) + len(p.TripCounts), bad})
	}
	if *only == "" || *only == "E7" {
		runMatrixExample()
	}
	if *only == "" || *only == "E13" || *only == "E14" || *only == "E15" || *only == "E12" {
		runDependenceExamples()
	}
	if len(rows) > 1 {
		fmt.Println("==== summary ====")
		for _, r := range rows {
			status := "ok"
			if r.bad > 0 {
				status = fmt.Sprintf("%d MISMATCHES", r.bad)
			}
			fmt.Printf("  %-5s %-62s %2d checks  %s\n", r.id, r.name, r.checks, status)
		}
	}
	if err := tel.Finish(os.Stderr); err != nil {
		cliutil.Fatal("paperrepro", err)
	}
	if failures > 0 {
		fmt.Printf("\n%d MISMATCHES\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall expectations reproduced")
}

func runProgram(p *paper.Program) int {
	fmt.Printf("==== %s: %s ====\n", p.ID, p.Name)
	if !*quiet {
		fmt.Println(indent(strings.TrimRight(p.Source, "\n")))
	}
	prog, err := classes.Analyze(p.Source)
	if err != nil {
		fmt.Println("ERROR:", err)
		return 1
	}
	a := prog.IV
	bad := 0
	for _, e := range p.Expect {
		l := a.LoopByLabel(e.Loop)
		v := a.ValueByName(e.Value)
		if l == nil || v == nil {
			fmt.Printf("  %-6s MISSING value %s/%s\n", "??", e.Loop, e.Value)
			bad++
			continue
		}
		var got string
		if e.Nested {
			got = a.NestedString(a.ClassOf(l, v))
		} else {
			got = a.ClassOf(l, v).String()
		}
		ok := got == e.Want || (e.PrefixOnly && strings.HasPrefix(got, e.Want))
		mark := "ok"
		if !ok {
			mark = "MISMATCH"
			bad++
		}
		fmt.Printf("  %-4s = %-42s [paper: %s] %s\n", e.Value, got, e.Want, mark)
	}
	labels := make([]string, 0, len(p.TripCounts))
	for label := range p.TripCounts {
		labels = append(labels, label)
	}
	slices.Sort(labels) // map order would reorder the lines run to run
	for _, label := range labels {
		want := p.TripCounts[label]
		l := a.LoopByLabel(label)
		if l == nil {
			bad++
			continue
		}
		got := a.TripCount(l).String()
		mark := "ok"
		if got != want {
			mark = "MISMATCH"
			bad++
		}
		fmt.Printf("  trip(%s) = %-37s [paper: %s] %s\n", label, got, want, mark)
	}
	if p.Notes != "" {
		fmt.Printf("  note: %s\n", p.Notes)
	}
	fmt.Println()
	return bad
}

// runMatrixExample reproduces §4.3's worked matrices: the 4×4
// Vandermonde system for the cubic k of L14 and the geometric system
// for m = 3m + 2i + 1.
func runMatrixExample() {
	fmt.Println("==== E7: §4.3 worked matrix inversions ====")
	a := matrix.Vandermonde(3)
	fmt.Println("A (cubic k, first four values 4, 9, 17, 29):")
	fmt.Print(indent(strings.TrimRight(a.String(), "\n")))
	inv, err := a.Inverse()
	if err != nil {
		fmt.Println("ERROR:", err)
		return
	}
	fmt.Println("\nA^-1:")
	fmt.Print(indent(strings.TrimRight(inv.String(), "\n")))
	coeffs, _ := a.Solve(rats(4, 9, 17, 29))
	fmt.Printf("\ncoefficients: %v   [paper: 4 23/6 1 1/6 — k(h) = (h^3+6h^2+23h+24)/6]\n", coeffs)

	g := matrix.GeometricVandermonde(4, 3)
	fmt.Println("\ngeometric system (m = 3m+2i+1 from 0; values 0, 3, 14, 49):")
	fmt.Print(indent(strings.TrimRight(g.String(), "\n")))
	mc, _ := g.Solve(rats(0, 3, 14, 49))
	fmt.Printf("coefficients: %v   [re-derived: m(h) = 2*3^h - h - 2, no quadratic term]\n\n", mc)
}

func runDependenceExamples() {
	fmt.Println("==== E13/E14/E15/E12: §6 dependence testing ====")
	show := func(title, src string) {
		fmt.Printf("-- %s --\n", title)
		if !*quiet {
			fmt.Println(indent(strings.TrimRight(src, "\n")))
		}
		prog, err := deps.Analyze(src)
		if err != nil {
			fmt.Println("ERROR:", err)
			return
		}
		fmt.Print(indent(strings.TrimRight(prog.DependenceReport(), "\n")))
		fmt.Println()
	}
	show("L21: induction expressions", paper.ByID("E13").Source)
	show("L22: periodic = translates to distance mod 2", paper.ByID("E14").Source)
	show("L23/L24: normalization study (triangular)", paper.ByID("E15").Source)
	show("Figure 10: monotonic directions", paper.ByID("E12").Source)
}

func rats(vs ...int64) []rational.Rat {
	out := make([]rational.Rat, len(vs))
	for i, v := range vs {
		out[i] = rational.FromInt(v)
	}
	return out
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
