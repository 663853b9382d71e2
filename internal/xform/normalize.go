package xform

import (
	"strconv"

	"beyondiv/internal/ast"
	"beyondiv/internal/token"
)

// NormalizeFor rewrites a counted loop so its index runs from 0 with
// step 1 — the classical "loop normalization" of §6.1 ([BCKT79]):
//
//	for i = lo to hi by s { body }
//
// becomes (for constant positive s)
//
//	__n = 0
//	for __n = 0 to (hi - lo) / s {
//	    i = __n * s + lo
//	    body
//	}
//	i = __n * s + lo        // final value, as the original loop leaves it
//
// The paper argues *against* performing this transformation (it moves
// the lower bound into every subscript and flips distance vectors, cf.
// L23/L24) and notes that the SSA classification normalizes implicitly;
// NormalizeFor exists so the tests can demonstrate that this
// implementation's analysis results are invariant under it.
//
// Restrictions (returns the loop unchanged, false): the step must be a
// positive constant, and the body must not assign the loop variable or
// the bound's variables (the rewrite would change their sequence).
func NormalizeFor(f *ast.For, counter string) (ast.Stmt, bool) {
	return normalizeFor(f, func() string { return counter })
}

// normalizeFor is NormalizeFor with the counter's name asked for only
// once the loop is known to normalize.
func normalizeFor(f *ast.For, counter func() string) (ast.Stmt, bool) {
	step := int64(1)
	if f.Step != nil {
		s, ok := constOf(f.Step)
		if !ok || s <= 0 {
			return f, false
		}
		step = s
	}
	// Already normal (index from a literal 0, unit step): rewriting
	// would only mint a fresh counter. The skip also makes the transform
	// idempotent, which the engine's fixed-point rounds require.
	if lo, ok := constOf(f.Lo); ok && lo == 0 && step == 1 {
		return f, false
	}
	if assignsAny(f.Body, varsOf(f.Lo, f.Hi, f.Var)) {
		return f, false
	}
	// Self-referential bounds (for t = t*8 to ...) read the variable the
	// restore statement would overwrite; leave them alone.
	if varsOf(f.Lo, f.Hi)[f.Var.Name] {
		return f, false
	}

	// New bound: floor((hi - lo) / s). Integer division in the language
	// truncates, which differs from floor for negative spans when s > 1
	// (a span of -1 with s = 2 would truncate to 0 and run a phantom
	// iteration), so non-unit steps are normalized only with constant
	// bounds, where the count folds exactly.
	var hi ast.Expr = &ast.Bin{Op: token.MINUS, X: f.Hi, Y: f.Lo}
	if step != 1 {
		loC, okLo := constOf(f.Lo)
		hiC, okHi := constOf(f.Hi)
		if !okLo || !okHi {
			return f, false
		}
		span := hiC - loC
		n := int64(-1)
		if span >= 0 {
			n = span / step
		}
		hi = &ast.Num{Value: n}
	}
	nv := &ast.Ident{Name: counter()}
	// i = __n * s + lo
	restore := func() *ast.Assign {
		var scaled ast.Expr = nv
		if step != 1 {
			scaled = &ast.Bin{Op: token.STAR, X: nv, Y: &ast.Num{Value: step}}
		}
		return &ast.Assign{
			LHS: &ast.Ident{Name: f.Var.Name},
			RHS: &ast.Bin{Op: token.PLUS, X: scaled, Y: f.Lo},
		}
	}

	body := &ast.Block{Stmts: append([]ast.Stmt{restore()}, f.Body.Stmts...)}
	norm := &ast.For{
		Label: f.Label,
		Var:   nv,
		Lo:    &ast.Num{Value: 0},
		Hi:    hi,
		Body:  body,
		KwPos: f.KwPos,
	}
	// After the loop the original variable holds first-exceeding value:
	// lo + tripcount*s, which is __n*s + lo with __n's final value.
	return &ast.Block{Stmts: []ast.Stmt{norm, restore()}}, true
}

// NormalizeProgram normalizes every for-loop it can, returning the
// rewritten file and the number of loops changed. Each for-loop, in
// post-order, takes the next counter name of the nrm sequence that the
// file does not already use, so a counter never clobbers one of the
// program's own variables; the sequence never repeats, so two loops
// never share one. The file's names are collected on the first loop
// that normalizes: a round in which every loop is already normal walks
// nothing.
func NormalizeProgram(file *ast.File) (*ast.File, int) {
	var used map[string]bool
	count := 0
	counterID := 0
	ast.RewriteFors(file, func(f *ast.For) ast.Stmt {
		counterID++
		norm, ok := normalizeFor(f, func() string {
			if used == nil {
				used = namesOf(file)
			}
			for used[normCounterName(counterID)] {
				counterID++
			}
			return normCounterName(counterID)
		})
		if ok {
			count++
		}
		return norm
	})
	return file, count
}

// namesOf collects every scalar and array name the file uses.
func namesOf(file *ast.File) map[string]bool {
	names := map[string]bool{}
	ast.Walk(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			names[v.Name] = true
		case *ast.Index:
			names[v.Name] = true
		}
		return true
	})
	return names
}

// normCounterName is the id-th counter name: nrma0, nrmb0, …, nrmy0,
// nrmz1, nrma1, …, with the number growing past nrmz9.
func normCounterName(id int) string {
	return "nrm" + string(rune('a'+(id-1)%26)) + strconv.Itoa(id/26)
}

// varsOf collects the variable names appearing in the expressions.
func varsOf(exprs ...ast.Expr) map[string]bool {
	out := map[string]bool{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Walk(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				out[id.Name] = true
			}
			return true
		})
	}
	return out
}

// assignsAny reports whether the body assigns any of the given scalars.
func assignsAny(b *ast.Block, names map[string]bool) bool {
	found := false
	ast.Walk(b, func(n ast.Node) bool {
		if a, ok := n.(*ast.Assign); ok {
			if id, isIdent := a.LHS.(*ast.Ident); isIdent && names[id.Name] {
				found = true
			}
		}
		// For statements redefine their own variable too.
		if f, ok := n.(*ast.For); ok && names[f.Var.Name] {
			found = true
		}
		return !found
	})
	return found
}
