package dom

import (
	"testing"
	"testing/quick"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/ir"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

func buildFunc(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	return cfgbuild.Build(f).Func
}

// slowDominates is the textbook oracle: a dominates b iff removing a
// from the graph makes b unreachable from entry (or a == b). It
// searches the graph once for a and answers for every b.
func slowDominates(f *ir.Func, a *ir.Block) func(b *ir.Block) bool {
	seen := map[*ir.Block]bool{a: true} // pretend a is removed
	var stack []*ir.Block
	if f.Entry != a {
		stack = append(stack, f.Entry)
		seen[f.Entry] = true
	}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	// b unreachable without a => a dominates b (if b was reachable at all).
	return func(b *ir.Block) bool { return !seen[b] || b == a }
}

func reachableBlocks(f *ir.Func) []*ir.Block { return f.Postorder() }

func checkAgainstOracle(t *testing.T, f *ir.Func) {
	t.Helper()
	tr := New(f)
	blocks := reachableBlocks(f)
	for _, a := range blocks {
		dominates := slowDominates(f, a)
		for _, b := range blocks {
			want := dominates(b)
			if got := tr.Dominates(a, b); got != want {
				t.Errorf("Dominates(%s,%s) = %v, oracle %v", a, b, got, want)
			}
		}
	}
}

func TestStraightLineDominators(t *testing.T) {
	f := buildFunc(t, "i = 1\nj = i + 1\n")
	checkAgainstOracle(t, f)
	tr := New(f)
	if tr.Idom(f.Entry) != nil {
		t.Error("entry must have no idom")
	}
}

func TestDiamond(t *testing.T) {
	f := buildFunc(t, "if x > 0 { k = 1 } else { k = 2 }\nm = k\n")
	checkAgainstOracle(t, f)
	tr := New(f)
	// The join block's idom is the branch block (entry).
	for _, b := range f.Blocks {
		if b.Comment == "if.join" {
			if tr.Idom(b) != f.Entry {
				t.Errorf("join idom = %v, want entry", tr.Idom(b))
			}
		}
	}
}

func TestLoopDominators(t *testing.T) {
	f := buildFunc(t, "for i = 1 to n { a[i] = 0 }\n")
	checkAgainstOracle(t, f)
	tr := New(f)
	var header, body, latch *ir.Block
	for _, b := range f.Blocks {
		switch b.Comment {
		case "L1.header":
			header = b
		case "L1.body":
			body = b
		case "L1.latch":
			latch = b
		}
	}
	if header == nil || body == nil || latch == nil {
		t.Fatal("loop blocks not found")
	}
	if !tr.Dominates(header, body) || !tr.Dominates(header, latch) {
		t.Error("header must dominate body and latch")
	}
	if tr.Dominates(body, header) {
		t.Error("body must not dominate header")
	}
}

func TestNestedLoopsAndConditionals(t *testing.T) {
	f := buildFunc(t, `
k = 0
for i = 1 to n {
    for j = 1 to i {
        if a[j] > 0 {
            k = k + 1
        } else {
            k = k + 2
        }
    }
    k = k + 3
}
`)
	checkAgainstOracle(t, f)
}

func TestLoopWithMidExit(t *testing.T) {
	f := buildFunc(t, `
i = 0
loop {
    i = i + 1
    if i > 10 { exit }
    j = j + i
}
`)
	checkAgainstOracle(t, f)
}

func TestFrontiersDiamond(t *testing.T) {
	f := buildFunc(t, "if x > 0 { k = 1 } else { k = 2 }\nm = k\n")
	tr := New(f)
	df := tr.Frontiers()
	var then, join *ir.Block
	for _, b := range f.Blocks {
		switch b.Comment {
		case "if.then":
			then = b
		case "if.join":
			join = b
		}
	}
	if then == nil || join == nil {
		t.Fatal("blocks not found")
	}
	if len(df[then.ID]) != 1 || df[then.ID][0] != join {
		t.Errorf("DF(then) = %v, want [%s]", df[then.ID], join)
	}
	// The branch block dominates the join, so join is not in its DF.
	for _, w := range df[f.Entry.ID] {
		if w == join {
			t.Error("join should not be in DF(entry)")
		}
	}
}

func TestFrontiersLoopHeader(t *testing.T) {
	// A loop header is in the dominance frontier of the latch (and of
	// itself through the back edge path).
	f := buildFunc(t, "for i = 1 to n { a[i] = 0 }\n")
	tr := New(f)
	df := tr.Frontiers()
	var header, latch *ir.Block
	for _, b := range f.Blocks {
		switch b.Comment {
		case "L1.header":
			header = b
		case "L1.latch":
			latch = b
		}
	}
	found := false
	for _, w := range df[latch.ID] {
		if w == header {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(latch) = %v, want to contain header %s", df[latch.ID], header)
	}
	// Header's own DF contains header (it dominates the latch, a pred
	// of itself, but does not strictly dominate itself).
	found = false
	for _, w := range df[header.ID] {
		if w == header {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(header) = %v, want to contain header itself", df[header.ID])
	}
}

// TestFrontierDefinition checks DF against its definition on random
// programs: w ∈ DF(b) iff b dominates some pred of w and not strictly w.
func TestFrontierDefinition(t *testing.T) {
	gen := progen.New()
	prop := func(seed int64) bool {
		file, err := parse.File(gen.Program(seed))
		if err != nil {
			return false
		}
		f := cfgbuild.Build(file).Func
		tr := New(f)
		df := tr.Frontiers()
		blocks := reachableBlocks(f)
		inDF := map[[2]int]bool{}
		for _, b := range blocks {
			for _, w := range df[b.ID] {
				inDF[[2]int{b.ID, w.ID}] = true
			}
		}
		for _, b := range blocks {
			for _, w := range blocks {
				want := false
				for _, p := range w.Preds {
					if tr.Dominates(b, p) && !(tr.Dominates(b, w) && b != w) {
						want = true
					}
				}
				if want != inDF[[2]int{b.ID, w.ID}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDominatorOracle validates the fast algorithm against the
// removal-based oracle on random programs.
func TestQuickDominatorOracle(t *testing.T) {
	gen := progen.New()
	prop := func(seed int64) bool {
		file, err := parse.File(gen.Program(seed))
		if err != nil {
			return false
		}
		f := cfgbuild.Build(file).Func
		tr := New(f)
		blocks := reachableBlocks(f)
		for _, a := range blocks {
			dominates := slowDominates(f, a)
			for _, b := range blocks {
				if tr.Dominates(a, b) != dominates(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDominators(b *testing.B) {
	file, err := parse.File(progen.NestedLoops(6))
	if err != nil {
		b.Fatal(err)
	}
	f := cfgbuild.Build(file).Func
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(f)
	}
}
