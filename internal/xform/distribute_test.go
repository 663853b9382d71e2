package xform

import (
	"fmt"
	"slices"
	"testing"

	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// couplingRef is the statement graph as distribute built it before
// successor lists: a bool matrix, every ordered statement pair tested
// for scalar coupling, and each row read out in ascending order.
func couplingRef(stmts []*ast.Assign, stmtOf map[*ir.Value]int, deps *depend.Result) [][]int {
	n := len(stmts)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for _, d := range deps.Deps {
		if d.Kind == depend.Input {
			continue
		}
		si, okS := stmtOf[d.Src.Value]
		di, okD := stmtOf[d.Dst.Value]
		if okS && okD {
			adj[si][di] = true
		}
	}
	touches := func(a *ast.Assign, name string) bool {
		if id, ok := a.LHS.(*ast.Ident); ok && id.Name == name {
			return true
		}
		if idx, ok := a.LHS.(*ast.Index); ok && varsOf(idx.Sub)[name] {
			return true
		}
		return varsOf(a.RHS)[name]
	}
	for i, a := range stmts {
		id, ok := a.LHS.(*ast.Ident)
		if !ok {
			continue
		}
		for j, b := range stmts {
			if i != j && touches(b, id.Name) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	succ := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			if adj[i][j] {
				succ[i] = append(succ[i], j)
			}
		}
	}
	return succ
}

// flatLoop is one loop whose body is a run of assignments, with the
// accesses it owns.
type flatLoop struct {
	label  string
	stmts  []*ast.Assign
	stmtOf map[*ir.Value]int
}

// flatLoops analyzes src with dependences and lists its uniquely
// labeled loops whose bodies distribute's statement graph covers.
func flatLoops(t *testing.T, src string) ([]flatLoop, *depend.Result) {
	t.Helper()
	passes := append(iv.Passes(iv.Options{}), depend.Pass(depend.Options{}))
	st, err := engine.New(engine.Config{Passes: passes}).Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	byLabel, unique := uniqueLoopLabels(st.Forest)
	var out []flatLoop
	for f, label := range cfgbuild.ForLabels(st.File) {
		var stmts []*ast.Assign
		for _, s := range f.Body.Stmts {
			if a, ok := s.(*ast.Assign); ok {
				stmts = append(stmts, a)
			}
		}
		if !unique[label] || len(stmts) < 2 || len(stmts) != len(f.Body.Stmts) {
			continue
		}
		if stmtOf := mapAccessesToStmts(byLabel[label], stmts); stmtOf != nil {
			out = append(out, flatLoop{label, stmts, stmtOf})
		}
	}
	return out, depend.ResultOf(st)
}

// TestCouplingMatchesMatrix: the successor lists hold exactly the
// matrix's rows, in the same order, on every flat loop of the paper,
// DepWorkload 0–95, progen 0–127 and the generated shapes.
func TestCouplingMatchesMatrix(t *testing.T) {
	srcs := map[string]string{"straight/64": progen.StraightLineLoop(64), "mutual/16": progen.MutualChain(16),
		"large/4": progen.Large(4), "derived/8": progen.DerivedChain(8)}
	for _, p := range paper.Corpus {
		srcs[p.ID] = p.Source
	}
	for s := int64(0); s < 96; s++ {
		srcs[fmt.Sprint("dep/", s)] = progen.DepWorkload(s)
	}
	gen := progen.New()
	for s := int64(0); s < 128; s++ {
		srcs[fmt.Sprint("progen/", s)] = gen.Program(s)
	}
	loops := 0
	for name, src := range srcs {
		fls, deps := flatLoops(t, src)
		for _, fl := range fls {
			loops++
			got, _ := coupling(fl.stmts, fl.stmtOf, deps)
			if want := couplingRef(fl.stmts, fl.stmtOf, deps); !slices.EqualFunc(got, want, slices.Equal) {
				t.Errorf("%s, loop %s: successors %v, the matrix's rows %v", name, fl.label, got, want)
			}
		}
	}
	if loops < 50 {
		t.Errorf("only %d flat loops compared", loops)
	}
	t.Logf("%d flat loops compared", loops)
}

// TestCouplingWorkLinear pins the statement graph's cost linear by
// counting its work — dependences, scalars and edges visited — on the
// E16 sweep's two largest loops (one statement per variable): within a
// constant per statement, and doubling the loop at most about doubles
// it. Testing every statement pair is quadratic.
func TestCouplingWorkLinear(t *testing.T) {
	var works []int
	for _, n := range []int{4096, 8192} {
		fls, deps := flatLoops(t, progen.StraightLineLoop(n))
		if len(fls) != 1 || len(fls[0].stmts) != n {
			t.Fatalf("StraightLineLoop(%d): %d flat loops", n, len(fls))
		}
		_, work := coupling(fls[0].stmts, fls[0].stmtOf, deps)
		if work > 4*n {
			t.Errorf("StraightLineLoop(%d): coupling work %d, bound %d", n, work, 4*n)
		}
		t.Logf("StraightLineLoop(%d): coupling work %d", n, work)
		works = append(works, work)
	}
	if 10*works[1] > 22*works[0] {
		t.Errorf("doubling the loop: coupling work %d → %d, want at most ×2.2", works[0], works[1])
	}
}
