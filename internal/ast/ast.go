// Package ast defines the abstract syntax tree of the mini loop language,
// together with a printer and a generic walker.
//
// The tree is deliberately small: integer scalar assignments, array
// element assignments, three loop forms (counted for, unstructured loop
// with exit, while), and if/else. That is exactly the fragment the paper
// analyzes — everything in Figures 1–10 and loops L1–L24 is expressible.
package ast

import (
	"fmt"
	"strings"

	"beyondiv/internal/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// ---- Expressions ----

// Ident is a scalar variable reference.
type Ident struct {
	Name    string
	NamePos token.Pos
}

// Num is an integer literal.
type Num struct {
	Value  int64
	ValPos token.Pos
}

// Bin is a binary arithmetic expression (+ - * / **) or, in conditions,
// a relational expression (== != < <= > >=).
type Bin struct {
	Op   token.Kind
	X, Y Expr
}

// Unary is unary negation.
type Unary struct {
	Op    token.Kind // MINUS
	X     Expr
	OpPos token.Pos
}

// Index is an array element reference a[sub].
type Index struct {
	Name    string
	NamePos token.Pos
	Sub     Expr
}

func (e *Ident) Pos() token.Pos { return e.NamePos }
func (e *Num) Pos() token.Pos   { return e.ValPos }
func (e *Bin) Pos() token.Pos   { return e.X.Pos() }
func (e *Unary) Pos() token.Pos { return e.OpPos }
func (e *Index) Pos() token.Pos { return e.NamePos }

func (*Ident) exprNode() {}
func (*Num) exprNode()   {}
func (*Bin) exprNode()   {}
func (*Unary) exprNode() {}
func (*Index) exprNode() {}

// ---- Statements ----

// Assign is `lhs = rhs`, where lhs is an Ident or an Index.
type Assign struct {
	LHS Expr // *Ident or *Index
	RHS Expr
}

// For is a counted loop `for v = lo to hi [by step] { body }`.
// Step is nil when `by` is omitted (meaning 1). Label is the optional
// `L:` prefix naming the loop.
type For struct {
	Label  string
	Var    *Ident
	Lo, Hi Expr
	Step   Expr // may be nil
	Body   *Block
	KwPos  token.Pos
}

// Loop is an unstructured loop `loop { body }`, left by an Exit.
type Loop struct {
	Label string
	Body  *Block
	KwPos token.Pos
}

// While is `while cond { body }`.
type While struct {
	Label string
	Cond  Expr
	Body  *Block
	KwPos token.Pos
}

// If is `if cond { then } [else { else }]`; Else may be nil or contain a
// single nested If for `else if` chains.
type If struct {
	Cond  Expr
	Then  *Block
	Else  *Block // nil if absent
	KwPos token.Pos
}

// Exit leaves the innermost enclosing loop.
type Exit struct {
	KwPos token.Pos
}

// Block is a `{ ... }` statement list.
type Block struct {
	Stmts []Stmt
	LPos  token.Pos
}

func (s *Assign) Pos() token.Pos { return s.LHS.Pos() }
func (s *For) Pos() token.Pos    { return s.KwPos }
func (s *Loop) Pos() token.Pos   { return s.KwPos }
func (s *While) Pos() token.Pos  { return s.KwPos }
func (s *If) Pos() token.Pos     { return s.KwPos }
func (s *Exit) Pos() token.Pos   { return s.KwPos }
func (s *Block) Pos() token.Pos  { return s.LPos }

func (*Assign) stmtNode() {}
func (*For) stmtNode()    {}
func (*Loop) stmtNode()   {}
func (*While) stmtNode()  {}
func (*If) stmtNode()     {}
func (*Exit) stmtNode()   {}
func (*Block) stmtNode()  {}

// File is a whole program: a statement list.
type File struct {
	Stmts []Stmt
}

// Pos returns the position of the first statement, or 1:1.
func (f *File) Pos() token.Pos {
	if len(f.Stmts) > 0 {
		return f.Stmts[0].Pos()
	}
	return token.Pos{Line: 1, Col: 1}
}

// ---- Walking ----

// Walk calls fn on n and then on each of n's children, pre-order.
// If fn returns false the children of n are skipped.
func Walk(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	switch v := n.(type) {
	case *File:
		for _, s := range v.Stmts {
			Walk(s, fn)
		}
	case *Block:
		for _, s := range v.Stmts {
			Walk(s, fn)
		}
	case *Assign:
		Walk(v.LHS, fn)
		Walk(v.RHS, fn)
	case *For:
		Walk(v.Var, fn)
		Walk(v.Lo, fn)
		Walk(v.Hi, fn)
		if v.Step != nil {
			Walk(v.Step, fn)
		}
		Walk(v.Body, fn)
	case *Loop:
		Walk(v.Body, fn)
	case *While:
		Walk(v.Cond, fn)
		Walk(v.Body, fn)
	case *If:
		Walk(v.Cond, fn)
		Walk(v.Then, fn)
		if v.Else != nil {
			Walk(v.Else, fn)
		}
	case *Bin:
		Walk(v.X, fn)
		Walk(v.Y, fn)
	case *Unary:
		Walk(v.X, fn)
	case *Index:
		Walk(v.Sub, fn)
	case *Ident, *Num, *Exit:
		// leaves
	default:
		panic(fmt.Sprintf("ast.Walk: unknown node %T", n))
	}
}

// RewriteFors rebuilds the file's statement lists bottom-up: each
// for-loop's body is rewritten before the loop itself, and the loop is
// then replaced by what fn returns for it: the loop to keep it, another
// statement, or a *Block whose statements are spliced in its place
// (the grammar has no bare-block statement).
func RewriteFors(file *File, fn func(*For) Stmt) {
	file.Stmts = rewriteFors(file.Stmts, fn)
}

func rewriteFors(list []Stmt, fn func(*For) Stmt) []Stmt {
	out := make([]Stmt, 0, len(list))
	for _, s := range list {
		switch v := s.(type) {
		case *For:
			v.Body.Stmts = rewriteFors(v.Body.Stmts, fn)
			s = fn(v)
			if b, isBlock := s.(*Block); isBlock {
				out = append(out, b.Stmts...)
				continue
			}
		case *Loop:
			v.Body.Stmts = rewriteFors(v.Body.Stmts, fn)
		case *While:
			v.Body.Stmts = rewriteFors(v.Body.Stmts, fn)
		case *If:
			v.Then.Stmts = rewriteFors(v.Then.Stmts, fn)
			if v.Else != nil {
				v.Else.Stmts = rewriteFors(v.Else.Stmts, fn)
			}
		}
		out = append(out, s)
	}
	return out
}

// ---- Printing ----

// String renders the program in canonical source form; parsing the
// result yields an equivalent tree.
func (f *File) String() string {
	var sb strings.Builder
	for _, s := range f.Stmts {
		printStmt(&sb, s, 0)
	}
	return sb.String()
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("    ")
	}
}

func printStmt(sb *strings.Builder, s Stmt, depth int) {
	indent(sb, depth)
	switch v := s.(type) {
	case *Assign:
		fmt.Fprintf(sb, "%s = %s\n", ExprString(v.LHS), ExprString(v.RHS))
	case *For:
		if v.Label != "" {
			fmt.Fprintf(sb, "%s: ", v.Label)
		}
		fmt.Fprintf(sb, "for %s = %s to %s", v.Var.Name, ExprString(v.Lo), ExprString(v.Hi))
		if v.Step != nil {
			fmt.Fprintf(sb, " by %s", ExprString(v.Step))
		}
		sb.WriteString(" {\n")
		for _, st := range v.Body.Stmts {
			printStmt(sb, st, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Loop:
		if v.Label != "" {
			fmt.Fprintf(sb, "%s: ", v.Label)
		}
		sb.WriteString("loop {\n")
		for _, st := range v.Body.Stmts {
			printStmt(sb, st, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *While:
		if v.Label != "" {
			fmt.Fprintf(sb, "%s: ", v.Label)
		}
		fmt.Fprintf(sb, "while %s {\n", ExprString(v.Cond))
		for _, st := range v.Body.Stmts {
			printStmt(sb, st, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *If:
		fmt.Fprintf(sb, "if %s {\n", ExprString(v.Cond))
		for _, st := range v.Then.Stmts {
			printStmt(sb, st, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}")
		if v.Else != nil {
			sb.WriteString(" else {\n")
			for _, st := range v.Else.Stmts {
				printStmt(sb, st, depth+1)
			}
			indent(sb, depth)
			sb.WriteString("}")
		}
		sb.WriteString("\n")
	case *Exit:
		sb.WriteString("exit\n")
	case *Block:
		sb.WriteString("{\n")
		for _, st := range v.Stmts {
			printStmt(sb, st, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	default:
		panic(fmt.Sprintf("ast: unknown statement %T", s))
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var sb strings.Builder
	printExpr(&sb, e, 0)
	return sb.String()
}

// precedence of binary operators for printing.
func prec(op token.Kind) int {
	switch op {
	case token.EQ, token.NE, token.LT, token.LE, token.GT, token.GE:
		return 1
	case token.PLUS, token.MINUS:
		return 2
	case token.STAR, token.SLASH:
		return 3
	case token.POW:
		return 4
	}
	return 0
}

func printExpr(sb *strings.Builder, e Expr, outer int) {
	switch v := e.(type) {
	case *Ident:
		sb.WriteString(v.Name)
	case *Num:
		fmt.Fprintf(sb, "%d", v.Value)
	case *Index:
		sb.WriteString(v.Name)
		sb.WriteByte('[')
		printExpr(sb, v.Sub, 0)
		sb.WriteByte(']')
	case *Unary:
		sb.WriteByte('-')
		printExpr(sb, v.X, 5)
	case *Bin:
		p := prec(v.Op)
		if p < outer {
			sb.WriteByte('(')
		}
		// Operands on the non-associating side bind one tighter, so
		// a - (b - c) and (2 ** 3) ** 2 keep their parentheses.
		xp, rp := p, p+1
		if v.Op == token.POW { // ** is right-associative
			xp, rp = p+1, p
		}
		printExpr(sb, v.X, xp)
		fmt.Fprintf(sb, " %s ", v.Op)
		printExpr(sb, v.Y, rp)
		if p < outer {
			sb.WriteByte(')')
		}
	default:
		panic(fmt.Sprintf("ast: unknown expression %T", e))
	}
}
