package xform

import (
	"fmt"
	"slices"

	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/scc"
)

// distribute — loop distribution along π-blocks, the other
// transformation the paper's introduction motivates. The statements of
// a flat loop body are partitioned into the strongly connected
// components of their dependence graph (statement-level π-blocks,
// depend.PiBlocks' construction restated over AST statements) and each
// component becomes its own loop, emitted in topological order. A
// recurrence stays trapped in its own (small) cyclic loop while the
// remaining singleton blocks become parallel candidates parmark then
// picks up — the analysis→restructure→parallelize chain.
//
// Gates: the body is a flat run of ≥ 2 assignments (no control flow, so
// every statement executes exactly once per iteration), the header is
// invariant (no array reads, no scalar the body assigns, not the
// counter), and the counter is not assigned by the body. Edges combine
// the §6 tester's dependences (mapped onto the statements that own the
// accesses) with conservative scalar def/def and def/use coupling:
// statements sharing an assigned scalar stay in one block, so no scalar
// expansion is ever needed.
//
// Distribution executes all iterations of one block before the next,
// permuting the global store trace while preserving per-cell order
// (output dependences force their statements into ordered or shared
// blocks); the pass declares Reorders accordingly.
func runDistribute(st *engine.State) (int, error) {
	deps := depend.ResultOf(st)
	if deps == nil {
		return 0, nil
	}
	loopByLabel, labelOK := uniqueLoopLabels(st.Forest)
	forLabels := cfgbuild.ForLabels(st.File)
	usedLabels := map[string]bool{}
	for _, lbl := range forLabels {
		usedLabels[lbl] = true
	}
	for _, l := range st.Forest.Loops {
		usedLabels[l.Label] = true
	}

	// Decide every split against the pre-rewrite analyses, then mutate.
	split := map[*ast.For][]ast.Stmt{}
	newLoops := 0
	ast.Walk(st.File, func(n ast.Node) bool {
		switch v := n.(type) {
		case ast.Expr, *ast.Assign:
			return false // no loop below
		case *ast.For:
			lbl := forLabels[v]
			if !labelOK[lbl] {
				return true
			}
			if repl := planDistribution(st, deps, v, loopByLabel[lbl], usedLabels); repl != nil {
				split[v] = repl
				newLoops += len(repl) - 1
				st.Obs().Decide(lbl, "distribute",
					fmt.Sprintf("split into %d π-blocks", len(repl)))
			}
		}
		return true
	})
	if len(split) == 0 {
		return 0, nil
	}

	ast.RewriteFors(st.File, func(f *ast.For) ast.Stmt {
		if repl, ok := split[f]; ok {
			return &ast.Block{Stmts: repl}
		}
		return f
	})
	st.Add("engine.xform.distribute.splits", int64(len(split)))
	st.Add("engine.xform.distribute.loops", int64(newLoops))
	chargeBudget(st, "distribute", newLoops)
	return newLoops, nil
}

// planDistribution computes the replacement loops for one candidate, or
// nil when the loop does not distribute (not a candidate, or a single
// π-block).
func planDistribution(st *engine.State, deps *depend.Result, f *ast.For, l *loops.Loop, usedLabels map[string]bool) []ast.Stmt {
	if l == nil || len(f.Body.Stmts) < 2 {
		return nil
	}
	stmts := make([]*ast.Assign, 0, len(f.Body.Stmts))
	assigned := map[string]bool{}
	for _, s := range f.Body.Stmts {
		a, ok := s.(*ast.Assign)
		if !ok {
			return nil
		}
		if id, ok := a.LHS.(*ast.Ident); ok {
			if id.Name == f.Var.Name {
				return nil // counter assigned by the body
			}
			assigned[id.Name] = true
		}
		stmts = append(stmts, a)
	}
	// Invariant header: evaluating it per split loop must see what the
	// original single evaluation stream saw.
	for _, e := range []ast.Expr{f.Lo, f.Hi, f.Step} {
		if e == nil {
			continue
		}
		if exprReadsArrayAST(e) {
			return nil
		}
	}
	for name := range varsOf(f.Lo, f.Hi, f.Step) {
		if name == f.Var.Name || assigned[name] {
			return nil
		}
	}

	stmtOf := mapAccessesToStmts(l, stmts)
	if stmtOf == nil {
		return nil
	}

	succ, _ := coupling(stmts, stmtOf, deps)
	comps := scc.Components(len(stmts), func(i int) []int { return succ[i] })
	if len(comps) < 2 {
		return nil
	}

	// Components pop successors-first; reverse for execution order and
	// keep each block's statements in program order.
	out := make([]ast.Stmt, 0, len(comps))
	suffix := 2
	for i := len(comps) - 1; i >= 0; i-- {
		comp := comps[i]
		slices.Sort(comp)
		body := make([]ast.Stmt, 0, len(comp))
		for _, k := range comp {
			body = append(body, stmts[k])
		}
		if len(out) == 0 {
			f.Body.Stmts = body
			out = append(out, f)
			continue
		}
		label := ""
		if f.Label != "" {
			for {
				label = fmt.Sprintf("%s_%d", f.Label, suffix)
				suffix++
				if !usedLabels[label] {
					break
				}
			}
			usedLabels[label] = true
		}
		nf := &ast.For{
			Label: label,
			Var:   &ast.Ident{Name: f.Var.Name, NamePos: f.Var.NamePos},
			Lo:    ast.CloneExpr(f.Lo),
			Hi:    ast.CloneExpr(f.Hi),
			Body:  &ast.Block{Stmts: body, LPos: f.Body.LPos},
			KwPos: f.KwPos,
		}
		if f.Step != nil {
			nf.Step = ast.CloneExpr(f.Step)
		}
		out = append(out, nf)
	}
	return out
}

// mapAccessesToStmts maps every memory value inside l onto the body
// statement that owns it, by segmenting the loop's Load/StoreElem
// values — which appear in program (value-ID) order — by each
// statement's static read/write counts. Returns nil when the counts do
// not reconcile (the conservative answer).
func mapAccessesToStmts(l *loops.Loop, stmts []*ast.Assign) map[*ir.Value]int {
	var vals []*ir.Value
	for _, b := range l.Blocks {
		for _, v := range b.Values {
			if v.Op == ir.OpLoadElem || v.Op == ir.OpStoreElem {
				vals = append(vals, v)
			}
		}
	}
	slices.SortFunc(vals, ir.ByID)

	stmtOf := make(map[*ir.Value]int, len(vals))
	cur := 0
	for k, a := range stmts {
		reads := indexReads(a.RHS)
		stores := 0
		if idx, ok := a.LHS.(*ast.Index); ok {
			reads += indexReads(idx.Sub)
			stores = 1
		}
		gotReads, gotStores := 0, 0
		for i := 0; i < reads+stores; i++ {
			if cur >= len(vals) {
				return nil
			}
			v := vals[cur]
			cur++
			if v.Op == ir.OpStoreElem {
				gotStores++
			} else {
				gotReads++
			}
			stmtOf[v] = k
		}
		if gotReads != reads || gotStores != stores {
			return nil
		}
	}
	if cur != len(vals) {
		return nil
	}
	return stmtOf
}

// indexReads counts the array element reads an expression performs.
func indexReads(e ast.Expr) int {
	switch v := e.(type) {
	case *ast.Index:
		return 1 + indexReads(v.Sub)
	case *ast.Unary:
		return indexReads(v.X)
	case *ast.Bin:
		return indexReads(v.X) + indexReads(v.Y)
	}
	return 0
}

// exprReadsArrayAST reports whether e contains an array element read.
func exprReadsArrayAST(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Index:
		return true
	case *ast.Unary:
		return exprReadsArrayAST(v.X)
	case *ast.Bin:
		return exprReadsArrayAST(v.X) || exprReadsArrayAST(v.Y)
	}
	return false
}

// coupling is the statement dependence graph, as each statement's
// successors in ascending order without repeats (Tarjan's emit order,
// and with it the split loops' order and labels, follows that order),
// and the work spent building it. Its edges are the §6 tester's
// dependences between the statements owning their accesses, and scalar
// coupling: statements that share an assigned scalar (def/def or
// def/use, in either textual order — a use before the def reads the
// previous iteration) must stay together. Collecting each statement's
// scalars once and indexing statements by the scalars they touch makes
// the graph cost O(statements + edges).
func coupling(stmts []*ast.Assign, stmtOf map[*ir.Value]int, deps *depend.Result) (succ [][]int, work int) {
	// Edges are gathered by target, then read out target by target, so
	// each successor list comes out ascending.
	preds := make([][]int, len(stmts))
	for _, d := range deps.Deps {
		work++
		if d.Kind == depend.Input {
			continue
		}
		si, okS := stmtOf[d.Src.Value]
		di, okD := stmtOf[d.Dst.Value]
		if okS && okD {
			preds[di] = append(preds[di], si)
		}
	}
	touching := map[string][]int{} // scalar → the statements reading or writing it
	for j, a := range stmts {
		for name := range varsOf(a.LHS, a.RHS) {
			work++
			touching[name] = append(touching[name], j)
		}
	}
	for i, a := range stmts {
		id, ok := a.LHS.(*ast.Ident)
		if !ok {
			continue
		}
		for _, j := range touching[id.Name] {
			work++
			if j != i {
				preds[j] = append(preds[j], i)
				preds[i] = append(preds[i], j)
			}
		}
	}
	succ = make([][]int, len(stmts))
	for j, ps := range preds {
		for _, i := range ps {
			work++
			if k := len(succ[i]); k == 0 || succ[i][k-1] != j {
				succ[i] = append(succ[i], j)
			}
		}
	}
	return succ, work
}
