package cfgbuild

import (
	"fmt"

	"beyondiv/internal/ast"
)

// ForLabels returns the effective label of every counted for-loop in the
// file: the explicit source label, or the "L<n>" the builder synthesizes.
// The numbering replicates builder.label exactly — every loop statement
// (for, loop, while) bumps the counter, in build (pre-order) order — so
// analysis results keyed by loop label map back onto AST nodes even for
// unlabeled loops. This is the single definition of that correspondence;
// the transform passes and the parallel interpreter both rely on it.
func ForLabels(file *ast.File) map[*ast.For]string {
	byNode := map[*ast.For]string{}
	nextLabel := 0
	assign := func(explicit string) string {
		nextLabel++
		if explicit != "" {
			return explicit
		}
		return fmt.Sprintf("L%d", nextLabel)
	}
	ast.Walk(file, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.For:
			byNode[v] = assign(v.Label)
		case *ast.Loop:
			assign(v.Label)
		case *ast.While:
			assign(v.Label)
		case ast.Expr, *ast.Assign:
			return false // no loop below
		}
		return true
	})
	return byNode
}
