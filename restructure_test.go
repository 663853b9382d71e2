// Restructuring-tier tests: the parmark/interchange/distribute passes
// end to end through the public Optimize pipeline. Chunked execution's
// byte identity with sequential is the equivalence matrix's.
package beyondiv

import (
	"fmt"
	"slices"
	"testing"

	"beyondiv/internal/ir"
	"beyondiv/internal/obs"
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

// storedArrays maps each of p's loops, by label, to the arrays its
// body stores to (nested loops included), in block order.
func storedArrays(p *Program) map[string][]string {
	out := map[string][]string{}
	for _, l := range p.Loops.Loops {
		for _, b := range l.Blocks {
			for _, v := range b.Values {
				if v.Op == ir.OpStoreElem {
					out[l.Label] = append(out[l.Label], v.Var)
				}
			}
		}
	}
	return out
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
	// independent a updates split off and parallelize. The 1-based
	// spelling pins that the default pipeline does not normalize:
	// normalize's preamble assignment would recompute i from the new
	// counter and couple every use of i into one π-block.
	for _, src := range []string{`
L1: for i = 0 to 50 {
    a[i] = a[i] + 1
    b[i + 1] = b[i] + 1
}
`, `
L1: for i = 1 to 51 {
    a[i] = a[i] + 1
    b[i + 1] = b[i] + 1
}
`} {
		r, err := Optimize(src)
		if err != nil {
			t.Fatal(err)
		}
		if passRewrites(r, "distribute") == 0 {
			t.Errorf("distribute did not split; stats %+v\n%s", r.Stats, src)
			continue
		}
		var labels []string
		for _, l := range r.Program.Loops.Loops {
			labels = append(labels, l.Label)
		}
		if len(labels) != 2 {
			t.Errorf("transformed program has loops %v, want the split pair\n%s", labels, src)
			continue
		}
		// The split singleton holding only the a-updates is parallel.
		if len(r.ParallelLoops) != 1 || !slices.Equal(storedArrays(r.Program)[r.ParallelLoops[0]], []string{"a"}) {
			t.Errorf("parallel loops = %v, want exactly the a-block\n%s", r.ParallelLoops, src)
		}
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
