// Restructuring-tier tests: the parmark/interchange/distribute passes
// end to end through the public Optimize pipeline, and the parallel
// execution backend's determinism contract (chunked execution is
// byte-identical to sequential — these tests also run under -race via
// `make test-race`, where the chunk goroutines are checked for
// unsynchronized access).
package beyondiv

import (
	"fmt"
	"slices"
	"testing"

	"beyondiv/internal/interp"
	"beyondiv/internal/obs"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// passRewrites sums the rewrites a named pass reported across rounds.
func passRewrites(r *OptimizeResult, name string) int {
	n := 0
	for _, s := range r.Stats {
		if s.Name == name {
			n += s.Rewrites
		}
	}
	return n
}

// benchRelaxation scales examples/relaxation: sweeps ping-pong between
// plane rows, the inner stencil loop carries nothing and parallelizes.
// BenchmarkRestructure executes it at (16, 2048), the size
// TestParmarkMarksProvablyParallelLoop proves the L2 mark at.
func benchRelaxation(sweeps, width int) string {
	return fmt.Sprintf(`
cur = 1
old = 2
L1: for sweep = 1 to %d {
    L2: for i = 1 to %d {
        plane[cur * %d + i] = plane[old * %d + i] + i
    }
    t = cur
    cur = old
    old = t
}
`, sweeps, width, width+1, width+1)
}

// benchStencil is the column stencil carrying its only dependence on
// the outer loop, plus the same nest after the interchange the pipeline
// performs (TestInterchangePromotesInnerParallelLoop asserts the pass
// makes exactly this move on orig at (64, 256), BenchmarkRestructure's
// size): the dependence-free j loop outermost and chunkable. Sizes must
// keep (2·rows−1)·(2·cols−1) under the exact dependence test's
// enumeration cap (depend.Options.MaxExact, 1<<16) or the distance
// degrades to an inexact direction vector and interchange
// conservatively refuses; the row stride stays well above the column
// extent for the same reason.
func benchStencil(rows, cols int) (orig, swapped string) {
	stride := 8 * cols
	orig = fmt.Sprintf(`
L1: for i = 0 to %d {
    L2: for j = 0 to %d {
        a[i * %d + j + %d] = a[i * %d + j] + j
    }
}
`, rows-1, cols-1, stride, stride, stride)
	swapped = fmt.Sprintf(`
L2: for j = 0 to %d {
    L1: for i = 0 to %d {
        a[i * %d + j + %d] = a[i * %d + j] + j
    }
}
`, cols-1, rows-1, stride, stride, stride)
	return orig, swapped
}

func TestParmarkMarksProvablyParallelLoop(t *testing.T) {
	r, err := Optimize(`
L1: for i = 0 to 99 {
    a[i] = a[i] + 1
}
L2: for i = 1 to 99 {
    b[i] = b[i - 1] + a[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.ParallelLoops, "L1") {
		t.Errorf("L1 has no carried dependence and should be marked: %v", r.ParallelLoops)
	}
	if slices.Contains(r.ParallelLoops, "L2") {
		t.Errorf("L2 carries a flow dependence (distance 1) and must not be marked: %v", r.ParallelLoops)
	}
	if passRewrites(r, "parmark") == 0 {
		t.Error("parmark reported no annotation delta")
	}

	// At the size BenchmarkRestructure executes, the relaxation's inner
	// stencil loop is still proven parallel: the mark it exploits is
	// never assumed.
	r, err = Optimize(benchRelaxation(16, 2048))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.ParallelLoops, "L2") {
		t.Errorf("relaxation inner loop not proven parallel: %v", r.ParallelLoops)
	}
}

func TestParmarkBlocksScalarRecurrence(t *testing.T) {
	// No carried array dependence — a[i] cells are all distinct — but s
	// is a carried scalar recurrence the header-φ gate must catch.
	r, err := Optimize(`
s = 0
L1: for i = 0 to 20 {
    s = s + 2
    a[i] = s
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(r.ParallelLoops, "L1") {
		t.Error("loop with a carried scalar recurrence was marked parallel")
	}
}

// TestInterchangePromotesInnerParallelLoop: the column stencil carries
// its only dependence on the outer loop (distance (1,0)), so the inner
// loop is parallel but stuck inside. Interchange must swap the nest and
// parmark must then mark the new outer loop — on a small nest and at
// the size BenchmarkRestructure executes, just under the exact
// dependence test's enumeration cap.
func TestInterchangePromotesInnerParallelLoop(t *testing.T) {
	stencil, _ := benchStencil(64, 256)
	for i, src := range []string{`
L1: for i = 0 to 19 {
    L2: for j = 0 to 19 {
        a[i * 100 + j + 100] = a[i * 100 + j] + 1
    }
}
`, stencil} {
		r, err := Optimize(src)
		if err != nil {
			t.Fatal(err)
		}
		if passRewrites(r, "interchange") != 1 {
			t.Fatalf("src %d: interchange rewrites = %d, want 1; stats %+v", i, passRewrites(r, "interchange"), r.Stats)
		}
		if !slices.Contains(r.ParallelLoops, "L2") {
			t.Errorf("src %d: swapped-outward L2 should be marked parallel: %v", i, r.ParallelLoops)
		}
		if r.Validations == 0 {
			t.Errorf("src %d: interchange ran without translation validation", i)
		}
		// The transformed program's loop forest has L2 as the root.
		var roots []string
		for _, l := range r.Program.Loops.Roots {
			roots = append(roots, l.Label)
		}
		if !slices.Contains(roots, "L2") {
			t.Errorf("src %d: transformed forest roots = %v, want L2 outermost", i, roots)
		}
	}
}

// TestInterchangeRefusesLexNegative: the §6.1 shape where a (<,>)
// dependence makes interchange illegal — distance (1,-1); the swap
// would reverse it to (-1,1), flowing backwards. The pass must leave
// the nest alone even though it is syntactically a perfect candidate.
func TestInterchangeRefusesLexNegative(t *testing.T) {
	r, err := Optimize(`
L1: for i = 0 to 9 {
    L2: for j = 1 to 9 {
        a[i * 100 + j + 99] = a[i * 100 + j] + 1
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if n := passRewrites(r, "interchange"); n != 0 {
		t.Errorf("interchange fired %d times on a (<,>) dependence", n)
	}
}

func TestDistributeSplitsAlongPiBlocks(t *testing.T) {
	// One loop, two π-blocks: the b recurrence must stay a loop; the
	// independent a updates split off and parallelize. (0-based so
	// normalize leaves the body flat: a normalization preamble assign
	// couples every counter use into one block — sound, just inert.)
	r, err := Optimize(`
L1: for i = 0 to 50 {
    a[i] = a[i] + 1
    b[i + 1] = b[i] + 1
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if passRewrites(r, "distribute") == 0 {
		t.Fatalf("distribute did not split; stats %+v", r.Stats)
	}
	var labels []string
	for _, l := range r.Program.Loops.Loops {
		labels = append(labels, l.Label)
	}
	if len(labels) != 2 {
		t.Fatalf("transformed program has loops %v, want the split pair", labels)
	}
	// The split singleton holding only the a-updates is parallel.
	if len(r.ParallelLoops) != 1 {
		t.Errorf("parallel loops = %v, want exactly the a-block", r.ParallelLoops)
	}
}

// TestRestructuredRunMatchesOriginal is the paper.Corpus + progen
// differential with the full restructuring pipeline: for every program,
// optimized execution (which the engine already translation-validated)
// must agree with the original on a probe input — belt and braces over
// the grid validation, exercising interchange/distribute/parmark on
// arbitrary shapes.
func TestRestructuredRunMatchesOriginal(t *testing.T) {
	var sources []string
	for _, ex := range paper.Corpus {
		sources = append(sources, ex.Source)
	}
	gen := progen.New()
	for seed := int64(0); seed < 12; seed++ {
		sources = append(sources, gen.Program(seed))
	}
	for i, src := range sources {
		r, err := Optimize(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		params := map[string]int64{}
		for _, n := range []string{"n", "m", "k"} {
			params[n] = 7
		}
		orig, err1 := r.Original.Run(params)
		xf, err2 := r.Program.Run(params)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("source %d: run disagreement: %v vs %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if len(orig.Writes) != len(xf.Writes) {
			t.Errorf("source %d: %d writes originally, %d after restructuring", i, len(orig.Writes), len(xf.Writes))
		}
	}
}

// TestParallelExecutionDeterminism: RunASTParallel must reproduce
// RunAST byte for byte — same store trace in the same global order,
// same scalars — for every worker count, including workers that divide
// the iteration space unevenly. Runs under -race in CI.
func TestParallelExecutionDeterminism(t *testing.T) {
	cases := []struct {
		name, src string
		marks     map[string]bool
	}{
		{"simple", `
L1: for i = 0 to 99 {
    a[i] = i * 3
}
`, map[string]bool{"L1": true}},
		{"lastwriter", `
s = 0
L1: for i = 0 to 30 {
    a[i] = a[i] + 5
    s = i
}
`, map[string]bool{"L1": true}},
		{"nest", `
L1: for i = 0 to 9 {
    L2: for j = 0 to 9 {
        a[i * 100 + j] = i + j
    }
}
`, map[string]bool{"L1": true}},
		{"downward", `
L1: for i = 50 to 1 by -1 {
    a[i] = a[i] * 2
}
`, map[string]bool{"L1": true}},
		{"zerotrip", `
L1: for i = 5 to 1 {
    a[i] = 1
}
`, map[string]bool{"L1": true}},
		{"unmarked-falls-back", `
s = 0
L1: for i = 1 to 20 {
    s = s + i
    a[i] = s
}
`, map[string]bool{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file, err := parse.File(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			cfg := interp.Config{MaxSteps: 100000}
			want, err := interp.RunAST(file, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7, 16} {
				got, err := interp.RunASTParallel(file, cfg, tc.marks, workers)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !slices.Equal(want.Writes, got.Writes) {
					t.Fatalf("workers=%d: store trace diverged:\nseq %v\npar %v", workers, want.Writes, got.Writes)
				}
				if len(want.Scalars) != len(got.Scalars) {
					t.Fatalf("workers=%d: scalar sets differ: %v vs %v", workers, want.Scalars, got.Scalars)
				}
				for k, v := range want.Scalars {
					if got.Scalars[k] != v {
						t.Fatalf("workers=%d: scalar %s = %d, want %d", workers, k, got.Scalars[k], v)
					}
				}
			}
		})
	}
}

// TestParmarkDecisionProvenance: the marks travel into the -why
// provenance (obs decision log) alongside the classification rules.
func TestParmarkDecisionProvenance(t *testing.T) {
	rec := obs.New()
	r, err := OptimizeWith(`
L1: for i = 0 to 9 {
    a[i] = 1
}
L2: for i = 1 to 9 {
    b[i] = b[i - 1]
}
`, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.ParallelLoops, "L1") {
		t.Fatalf("L1 not marked: %v", r.ParallelLoops)
	}
	var marked, blocked bool
	for _, d := range rec.Decisions() {
		if d.Rule == "parmark.marked" && d.Subject == "L1" {
			marked = true
		}
		if d.Rule == "parmark.blocked" && d.Subject == "L2" {
			blocked = true
		}
	}
	if !marked || !blocked {
		t.Errorf("decision log missing parmark provenance (marked=%v blocked=%v): %+v",
			marked, blocked, rec.Decisions())
	}
}
