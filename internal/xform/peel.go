// Package xform implements the two consumers of the classification that
// the paper discusses: loop peeling for wrap-around variables (§4.1 —
// "peel off the first iteration of the loop and replace the wrap-around
// variable with the appropriate induction variable") and classical
// strength reduction driven by linear families (§1's original use of
// induction variables).
package xform

import (
	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/token"
)

// PeelFor peels the first iteration of a counted loop at the AST level:
//
//	for i = lo to hi { body }
//
// becomes
//
//	i = lo
//	if i <= hi {
//	    body
//	    for i = lo+step to hi { body }
//	}
//
// After peeling, a first-order wrap-around variable in the original
// loop classifies as a plain induction variable in the residual loop
// (its initial value now "fits the sequence", §4.1).
func PeelFor(f *ast.For) ast.Stmt {
	step := f.Step
	if step == nil {
		step = &ast.Num{Value: 1}
	}
	stay := token.LE
	if s, isNum := constOf(step); isNum && s < 0 {
		stay = token.GE
	}

	peeledVar := &ast.Assign{
		LHS: &ast.Ident{Name: f.Var.Name},
		RHS: f.Lo,
	}
	// The residual lower bound reads the loop variable itself (not lo
	// again): the peeled body may have modified either, and `i + step`
	// is exactly what the original latch would compute.
	residual := &ast.For{
		Label: f.Label,
		Var:   &ast.Ident{Name: f.Var.Name},
		Lo:    &ast.Bin{Op: token.PLUS, X: &ast.Ident{Name: f.Var.Name}, Y: step},
		Hi:    f.Hi,
		Step:  f.Step,
		Body:  f.Body,
		KwPos: f.KwPos,
	}
	guarded := &ast.If{
		Cond: &ast.Bin{Op: stay, X: &ast.Ident{Name: f.Var.Name}, Y: f.Hi},
		Then: &ast.Block{Stmts: append(ast.CloneStmts(f.Body.Stmts), residual)},
	}
	return &ast.Block{Stmts: []ast.Stmt{peeledVar, guarded}}
}

// PeelProgram peels the first iteration of every for-loop whose
// effective label (cfgbuild.ForLabels: the explicit label, or the L<n>
// cfgbuild synthesizes) is in the set, so classification results
// keyed by loop label map back onto the AST even for unlabeled loops;
// nil peels every for-loop. Returns the rewritten file and how many
// loops were peeled.
func PeelProgram(file *ast.File, labels map[string]bool) (*ast.File, int) {
	byNode := cfgbuild.ForLabels(file)
	count := 0
	ast.RewriteFors(file, func(f *ast.For) ast.Stmt {
		if labels != nil && !labels[byNode[f]] {
			return f
		}
		count++
		return PeelFor(f)
	})
	return file, count
}

func constOf(e ast.Expr) (int64, bool) {
	switch v := e.(type) {
	case *ast.Num:
		return v.Value, true
	case *ast.Unary:
		c, ok := constOf(v.X)
		return -c, ok
	}
	return 0, false
}
