package xform

import (
	"fmt"

	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/loops"
)

// interchange — §6.1's "loop interchanging", driven by the direction
// vectors the dependence tester computed. A perfect two-deep nest is
// swapped when it is both legal and profitable:
//
//   - legal: no dependence across the pair has direction (<, >)
//     (depend.InterchangeLegal) — and, when every dependence has an
//     exact distance vector, the unimodular interchange matrix keeps
//     all of them lexicographically nonnegative
//     (depend.UnimodularLegal), the [WL91]/[Ban91] formulation the
//     paper's closing remarks cite;
//   - profitable: the inner loop is parallelizable and the outer is
//     not, so the swap moves the parallel loop outward where chunked
//     execution amortizes (wavefront/stencil shape). Profitability is
//     monotone — after the swap the new outer loop is parallelizable —
//     so the fixed point cannot oscillate.
//
// The syntactic gate keeps the rewrite honestly within what the
// validator can certify: both headers constant with provably at least
// one trip (a zero-trip outer loop would leave the old inner counter
// unassigned, changing the observable scalar environment), and the
// inner body a flat run of assignments (so final scalar values come
// from the shared last iteration, which interchange preserves).
//
// Interchange permutes the order iterations execute in, and with it the
// global store trace; per-cell write order is preserved (that is what
// legality means), so the pass declares Reorders and validation
// compares traces in validate.PerCellOrder from then on.
func runInterchange(st *engine.State) (int, error) {
	deps := depend.ResultOf(st)
	if deps == nil {
		return 0, nil
	}
	loopByLabel, labelOK := uniqueLoopLabels(st.Forest)
	forLabels := cfgbuild.ForLabels(st.File)

	n := 0
	ast.Walk(st.File, func(node ast.Node) bool {
		switch v := node.(type) {
		case ast.Expr, *ast.Assign:
			return false // no loop below
		case *ast.For:
			inner, ok := interchangeCandidate(v)
			if !ok {
				return true
			}
			lo, li := forLabels[v], forLabels[inner]
			if labelOK[lo] && labelOK[li] &&
				interchangeLegalProfitable(st, deps, loopByLabel[lo], loopByLabel[li]) {
				v.Label, inner.Label = inner.Label, v.Label
				v.Var, inner.Var = inner.Var, v.Var
				v.Lo, inner.Lo = inner.Lo, v.Lo
				v.Hi, inner.Hi = inner.Hi, v.Hi
				v.Step, inner.Step = inner.Step, v.Step
				n++
				st.Obs().Decide(li, "interchange",
					fmt.Sprintf("swapped outward across %s: legal and inner-parallel", lo))
				return false // the nest is rewritten; decisions below it are stale
			}
		}
		return true
	})
	if n > 0 {
		st.Add("engine.xform.interchange.swaps", int64(n))
		chargeBudget(st, "interchange", n)
	}
	return n, nil
}

// interchangeCandidate reports whether outer is syntactically a
// swappable perfect nest: its body is exactly one inner for-loop whose
// body is a flat run of assignments touching neither counter, and both
// headers are constant with at least one trip.
func interchangeCandidate(outer *ast.For) (*ast.For, bool) {
	if len(outer.Body.Stmts) != 1 {
		return nil, false
	}
	inner, ok := outer.Body.Stmts[0].(*ast.For)
	if !ok || len(inner.Body.Stmts) == 0 {
		return nil, false
	}
	for _, s := range inner.Body.Stmts {
		a, ok := s.(*ast.Assign)
		if !ok {
			return nil, false
		}
		if id, ok := a.LHS.(*ast.Ident); ok &&
			(id.Name == outer.Var.Name || id.Name == inner.Var.Name) {
			return nil, false
		}
	}
	return inner, constAtLeastOneTrip(outer) && constAtLeastOneTrip(inner)
}

// constAtLeastOneTrip reports whether the for-header is fully constant
// and provably executes its body at least once.
func constAtLeastOneTrip(f *ast.For) bool {
	lo, okL := constOf(f.Lo)
	hi, okH := constOf(f.Hi)
	if !okL || !okH {
		return false
	}
	step := int64(1)
	if f.Step != nil {
		var okS bool
		if step, okS = constOf(f.Step); !okS || step == 0 {
			return false
		}
	}
	if step > 0 {
		return lo <= hi
	}
	return lo >= hi
}

// interchangeLegalProfitable applies the dependence-level gates.
func interchangeLegalProfitable(st *engine.State, deps *depend.Result, outer, inner *loops.Loop) bool {
	if outer == nil || inner == nil || inner.Parent != outer {
		return false
	}
	if ok, _ := depend.InterchangeLegal(deps, outer, inner); !ok {
		st.Obs().Decide(inner.Label, "interchange.blocked", "a dependence has direction (<,>)")
		return false
	}
	if dists, ok := depend.DistanceVectors2(deps, outer, inner); ok &&
		!depend.UnimodularLegal(depend.Interchange, dists) {
		st.Obs().Decide(inner.Label, "interchange.blocked", "unimodular check rejects a distance vector")
		return false
	}
	innerPar, _ := depend.Parallelizable(deps, inner)
	outerPar, _ := depend.Parallelizable(deps, outer)
	return innerPar && !outerPar
}

// uniqueLoopLabels maps label → loop for every unambiguous label in the
// forest.
func uniqueLoopLabels(forest *loops.Forest) (map[string]*loops.Loop, map[string]bool) {
	byLabel := map[string]*loops.Loop{}
	count := map[string]int{}
	for _, l := range forest.Loops {
		if l.Label == "" {
			continue
		}
		byLabel[l.Label] = l
		count[l.Label]++
	}
	ok := map[string]bool{}
	for lbl, c := range count {
		ok[lbl] = c == 1
	}
	return byLabel, ok
}
