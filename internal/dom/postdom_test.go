package dom

import (
	"testing"
	"testing/quick"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/ir"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// reachesExit is the set of blocks with a path to Exit that avoids
// removed (nil removes nothing): one backward search from Exit answers
// for every block.
func reachesExit(f *ir.Func, removed *ir.Block) map[*ir.Block]bool {
	seen := map[*ir.Block]bool{}
	if f.Exit == removed {
		return seen
	}
	seen[f.Exit] = true
	stack := []*ir.Block{f.Exit}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range blk.Preds {
			if p != removed && !seen[p] {
				seen[p] = true
				stack = append(stack, p)
			}
		}
	}
	return seen
}

// slowPostDominates: a postdominates b iff removing a makes Exit
// unreachable from b (or a == b), for blocks that can reach Exit. It
// searches the graph once for a and answers for every b.
func slowPostDominates(f *ir.Func, a *ir.Block) func(b *ir.Block) bool {
	reach := reachesExit(f, a)
	return func(b *ir.Block) bool { return a == b || !reach[b] }
}

func checkPostAgainstOracle(t *testing.T, src string) {
	t.Helper()
	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	f := cfgbuild.Build(file).Func
	pt := NewPost(f)
	canReachExit := reachesExit(f, nil)
	for _, a := range f.Blocks {
		postDominates := slowPostDominates(f, a)
		for _, b := range f.Blocks {
			if !canReachExit[a] || !canReachExit[b] {
				continue // tree leaves these unrelated; oracle undefined
			}
			want := postDominates(b)
			if got := pt.Dominates(a, b); got != want {
				t.Errorf("PostDominates(%s,%s) = %v, oracle %v in\n%s", a, b, got, want, f)
			}
		}
	}
}

func TestPostDominatorsBasic(t *testing.T) {
	checkPostAgainstOracle(t, "i = 1\nif x > 0 { i = 2 } else { i = 3 }\nj = i\n")
	checkPostAgainstOracle(t, "for i = 1 to n { if a[i] > 0 { k = k + 1 } }\n")
	checkPostAgainstOracle(t, "i = 0\nloop { i = i + 1\nif i > 10 { exit }\nj = j + 1 }\n")
}

func TestPostDominatorsConditional(t *testing.T) {
	// The join block postdominates both branches; the then-block
	// postdominates nothing but itself.
	file := parse.MustParse("if x > 0 { k = 1 } else { k = 2 }\nm = k\n")
	f := cfgbuild.Build(file).Func
	pt := NewPost(f)
	var then, els, join *ir.Block
	for _, b := range f.Blocks {
		switch b.Comment {
		case "if.then":
			then = b
		case "if.else":
			els = b
		case "if.join":
			join = b
		}
	}
	if !pt.Dominates(join, then) || !pt.Dominates(join, els) {
		t.Error("join must postdominate both branches")
	}
	if pt.Dominates(then, f.Entry) {
		t.Error("a branch must not postdominate the entry")
	}
	if !pt.Dominates(f.Exit, f.Entry) {
		t.Error("exit postdominates everything that reaches it")
	}
}

func TestQuickPostDominatorOracle(t *testing.T) {
	gen := progen.New()
	prop := func(seed int64) bool {
		file, err := parse.File(gen.Program(seed))
		if err != nil {
			return false
		}
		f := cfgbuild.Build(file).Func
		pt := NewPost(f)
		canReachExit := reachesExit(f, nil)
		for _, a := range f.Blocks {
			postDominates := slowPostDominates(f, a)
			for _, b := range f.Blocks {
				if !canReachExit[a] || !canReachExit[b] {
					continue
				}
				if pt.Dominates(a, b) != postDominates(b) {
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
