// Package parse implements a recursive-descent parser for the mini loop
// language, producing an *ast.File.
//
// Grammar (statements separated by newlines or ';'; '}' also terminates):
//
//	file    = { stmt } .
//	stmt    = assign | for | loop | while | if | "exit" .
//	assign  = lvalue "=" expr .
//	lvalue  = IDENT [ "[" expr "]" ] .
//	for     = [ IDENT ":" ] "for" IDENT "=" expr "to" expr [ "by" expr ] block .
//	loop    = [ IDENT ":" ] "loop" block .
//	while   = [ IDENT ":" ] "while" cond block .
//	if      = "if" cond block [ "else" ( block | if ) ] .
//	block   = "{" { stmt } "}" .
//	cond    = expr relop expr .
//	expr    = term { ("+"|"-") term } .
//	term    = factor { ("*"|"/") factor } .
//	factor  = primary [ "**" factor ] .
//	primary = NUMBER | IDENT [ "[" expr "]" ] | "(" expr ")" | "-" primary .
package parse

import (
	"errors"
	"fmt"
	"strconv"

	"beyondiv/internal/ast"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/scan"
	"beyondiv/internal/scratch"
	"beyondiv/internal/token"
)

// maxErrors bounds diagnostics per file before the parser gives up.
const maxErrors = 20

type parser struct {
	toks []token.Token
	pos  int
	errs []error
	// maxDepth bounds recursive descent (statement and expression
	// nesting); 0 is unchecked. depth is the current recursion depth.
	maxDepth int
	depth    int
	// limitErr records a hit nesting ceiling; parsing then fast-forwards
	// to EOF and the error is surfaced once.
	limitErr *guard.LimitError
	// slab allocates AST nodes in per-kind chunks; stmtBuf is the
	// statement stack nested blocks share (each block records its mark,
	// appends, then carves its statements off the top). See slab.go.
	slab    nodeSlab
	stmtBuf []ast.Stmt
}

// File parses a whole program: no telemetry, no limits, fresh buffers.
func File(src string) (*ast.File, error) { return FileScratch(src, nil, guard.Limits{}, nil) }

// FileScratch is File under a run, the entry the engine's parse pass
// calls. rec (nil: off) receives "scan" and "parse" phase spans plus
// token and statement counters. lim caps the source length at
// lim.MaxSourceBytes and recursive descent at lim.MaxNestDepth, so
// hostile input produces a diagnostic (wrapping a *guard.LimitError)
// instead of a stack overflow; zero limit fields are unchecked, and
// lim.Inject fires on entry to the "scan" and "parse" phases. ar lends
// the reusable buffers — the scan token buffer and the block statement
// stack — so a hot caller pays for them once instead of per parse. The
// AST itself is slab-allocated from fresh per-run chunks, never from
// the arena: it escapes into the cached State. A nil arena allocates
// locally.
func FileScratch(src string, rec *obs.Recorder, lim guard.Limits, ar *scratch.Arena) (*ast.File, error) {
	if lim.MaxSourceBytes > 0 && len(src) > lim.MaxSourceBytes {
		return nil, &guard.LimitError{Phase: "scan", Resource: "source bytes", Limit: int64(lim.MaxSourceBytes)}
	}
	var ps *parseScratch
	if ar != nil {
		ps = scratch.Get[parseScratch](&ar.Parse)
	} else {
		ps = &parseScratch{}
	}
	lim.Inject.Fire("scan")
	span := rec.Phase("scan")
	toks, scanErrs := scan.AllInto(src, ps.toks)
	ps.toks = toks[:0] // keep the grown capacity for the next run
	rec.Add("scan.tokens", int64(len(toks)))
	span.End()

	lim.Inject.Fire("parse")
	span = rec.Phase("parse")
	defer span.End()
	p := &parser{toks: toks, maxDepth: lim.MaxNestDepth, stmtBuf: ps.stmtBuf[:0]}
	p.errs = append(p.errs, scanErrs...)
	f := &ast.File{}
	p.skipSemis()
	for !p.at(token.EOF) && len(p.errs) < maxErrors && p.limitErr == nil {
		s := p.stmt()
		if s != nil {
			p.stmtBuf = append(p.stmtBuf, s)
		}
		p.terminator()
	}
	f.Stmts = p.slab.stmtSlice(p.stmtBuf)
	ps.stmtBuf = p.stmtBuf[:0]
	rec.Add("parse.stmts", int64(len(f.Stmts)))
	if p.limitErr != nil {
		return f, errors.Join(append([]error{p.limitErr}, p.errs...)...)
	}
	if len(p.errs) > 0 {
		return f, errors.Join(p.errs...)
	}
	return f, nil
}

// enter counts one level of recursive descent; it reports false (and
// records the limit hit once) when the nesting ceiling is exceeded.
// Every enter pairs with a deferred leave.
func (p *parser) enter() bool {
	p.depth++
	if p.maxDepth > 0 && p.depth > p.maxDepth {
		if p.limitErr == nil {
			p.limitErr = &guard.LimitError{Phase: "parse", Resource: "nesting depth", Limit: int64(p.maxDepth)}
			p.errorf("nesting deeper than %d levels", p.maxDepth)
			p.pos = len(p.toks) // fast-forward to EOF; recursion unwinds
		}
		return false
	}
	return true
}

func (p *parser) leave() { p.depth-- }

// MustParse parses src and panics on error; intended for tests and for
// the paper corpus, whose sources are fixed.
func MustParse(src string) *ast.File {
	f, err := File(src)
	if err != nil {
		panic(err)
	}
	return f
}

func (p *parser) cur() token.Token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	end := token.Pos{Line: 1, Col: 1}
	if len(p.toks) > 0 {
		end = p.toks[len(p.toks)-1].Pos
	}
	return token.Token{Kind: token.EOF, Pos: end}
}

func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) next() token.Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf("expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *parser) errorf(format string, args ...any) {
	// Enforce maxErrors here, not only in the parse loops: a deep
	// recursion unwinding at EOF would otherwise append one cascading
	// diagnostic per open construct.
	if len(p.errs) >= maxErrors {
		return
	}
	p.errs = append(p.errs, &token.PosError{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)})
}

// Slab-backed node constructors for the three expression kinds built
// all over the grammar; the statement kinds carve inline at their
// single construction site.
func (p *parser) newBin(op token.Kind, x, y ast.Expr) *ast.Bin {
	b := carve(&p.slab.bin)
	*b = ast.Bin{Op: op, X: x, Y: y}
	return b
}

func (p *parser) newIdent(name string, pos token.Pos) *ast.Ident {
	id := carve(&p.slab.ident)
	*id = ast.Ident{Name: name, NamePos: pos}
	return id
}

func (p *parser) newNum(v int64, pos token.Pos) *ast.Num {
	n := carve(&p.slab.num)
	*n = ast.Num{Value: v, ValPos: pos}
	return n
}

func (p *parser) skipSemis() {
	for p.at(token.SEMI) {
		p.next()
	}
}

// terminator consumes the statement separator after a statement: one or
// more SEMIs, or lets a closing brace / EOF stand.
func (p *parser) terminator() {
	if p.at(token.SEMI) {
		p.skipSemis()
		return
	}
	if p.at(token.RBRACE) || p.at(token.EOF) {
		return
	}
	p.errorf("expected end of statement, found %s", p.cur())
	p.sync()
}

// sync advances to the next statement boundary after an error.
func (p *parser) sync() {
	for !p.at(token.EOF) && !p.at(token.SEMI) && !p.at(token.RBRACE) {
		p.next()
	}
	p.skipSemis()
}

func (p *parser) stmt() ast.Stmt {
	if !p.enter() {
		return nil
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.FOR:
		return p.forStmt("")
	case token.LOOP:
		return p.loopStmt("")
	case token.WHILE:
		return p.whileStmt("")
	case token.IF:
		return p.ifStmt()
	case token.EXIT:
		kw := p.next()
		e := carve(&p.slab.exit)
		*e = ast.Exit{KwPos: kw.Pos}
		return e
	case token.IDENT:
		// Either `label: loop-stmt` or an assignment.
		if p.pos+1 < len(p.toks) && p.toks[p.pos+1].Kind == token.COLON {
			label := p.next().Lit
			p.next() // ':'
			switch p.cur().Kind {
			case token.FOR:
				return p.forStmt(label)
			case token.LOOP:
				return p.loopStmt(label)
			case token.WHILE:
				return p.whileStmt(label)
			default:
				p.errorf("label %q must precede for, loop, or while", label)
				p.sync()
				return nil
			}
		}
		return p.assign()
	default:
		p.errorf("unexpected %s at start of statement", p.cur())
		p.sync()
		return nil
	}
}

func (p *parser) assign() ast.Stmt {
	id := p.expect(token.IDENT)
	var lhs ast.Expr
	if p.at(token.LBRACK) {
		p.next()
		sub := p.expr()
		p.expect(token.RBRACK)
		ix := carve(&p.slab.index)
		*ix = ast.Index{Name: id.Lit, NamePos: id.Pos, Sub: sub}
		lhs = ix
	} else {
		lhs = p.newIdent(id.Lit, id.Pos)
	}
	p.expect(token.ASSIGN)
	rhs := p.expr()
	a := carve(&p.slab.assign)
	*a = ast.Assign{LHS: lhs, RHS: rhs}
	return a
}

func (p *parser) forStmt(label string) ast.Stmt {
	kw := p.expect(token.FOR)
	id := p.expect(token.IDENT)
	p.expect(token.ASSIGN)
	lo := p.expr()
	p.expect(token.TO)
	hi := p.expr()
	var step ast.Expr
	if p.at(token.BY) {
		p.next()
		step = p.expr()
	}
	body := p.block()
	f := carve(&p.slab.forS)
	*f = ast.For{
		Label: label,
		Var:   p.newIdent(id.Lit, id.Pos),
		Lo:    lo, Hi: hi, Step: step,
		Body:  body,
		KwPos: kw.Pos,
	}
	return f
}

func (p *parser) loopStmt(label string) ast.Stmt {
	kw := p.expect(token.LOOP)
	body := p.block()
	l := carve(&p.slab.loop)
	*l = ast.Loop{Label: label, Body: body, KwPos: kw.Pos}
	return l
}

func (p *parser) whileStmt(label string) ast.Stmt {
	kw := p.expect(token.WHILE)
	cond := p.cond()
	body := p.block()
	w := carve(&p.slab.while)
	*w = ast.While{Label: label, Cond: cond, Body: body, KwPos: kw.Pos}
	return w
}

func (p *parser) ifStmt() ast.Stmt {
	kw := p.expect(token.IF)
	cond := p.cond()
	then := p.block()
	var els *ast.Block
	if p.at(token.ELSE) {
		p.next()
		if p.at(token.IF) {
			nested := p.ifStmt()
			mark := len(p.stmtBuf)
			p.stmtBuf = append(p.stmtBuf, nested)
			els = carve(&p.slab.block)
			*els = ast.Block{Stmts: p.slab.stmtSlice(p.stmtBuf[mark:]), LPos: nested.Pos()}
			p.stmtBuf = p.stmtBuf[:mark]
		} else {
			els = p.block()
		}
	}
	i := carve(&p.slab.ifS)
	*i = ast.If{Cond: cond, Then: then, Else: els, KwPos: kw.Pos}
	return i
}

func (p *parser) block() *ast.Block {
	lb := p.expect(token.LBRACE)
	b := carve(&p.slab.block)
	*b = ast.Block{LPos: lb.Pos}
	p.skipSemis()
	mark := len(p.stmtBuf)
	for !p.at(token.RBRACE) && !p.at(token.EOF) && len(p.errs) < maxErrors {
		s := p.stmt()
		if s != nil {
			p.stmtBuf = append(p.stmtBuf, s)
		}
		p.terminator()
	}
	p.expect(token.RBRACE)
	b.Stmts = p.slab.stmtSlice(p.stmtBuf[mark:])
	p.stmtBuf = p.stmtBuf[:mark]
	return b
}

// cond parses `expr relop expr`.
func (p *parser) cond() ast.Expr {
	x := p.expr()
	if !p.cur().Kind.IsRelop() {
		p.errorf("expected relational operator, found %s", p.cur())
		return x
	}
	op := p.next().Kind
	y := p.expr()
	return p.newBin(op, x, y)
}

func (p *parser) expr() ast.Expr {
	x := p.term()
	for p.at(token.PLUS) || p.at(token.MINUS) {
		op := p.next().Kind
		y := p.term()
		x = p.newBin(op, x, y)
	}
	return x
}

func (p *parser) term() ast.Expr {
	x := p.factor()
	for p.at(token.STAR) || p.at(token.SLASH) {
		op := p.next().Kind
		y := p.factor()
		x = p.newBin(op, x, y)
	}
	return x
}

// factor handles the right-associative exponent operator.
func (p *parser) factor() ast.Expr {
	x := p.primary()
	if p.at(token.POW) {
		p.next()
		y := p.factor()
		return p.newBin(token.POW, x, y)
	}
	return x
}

func (p *parser) primary() ast.Expr {
	if !p.enter() {
		return p.newNum(0, p.cur().Pos)
	}
	defer p.leave()
	switch p.cur().Kind {
	case token.NUMBER:
		t := p.next()
		v, err := strconv.ParseInt(t.Lit, 10, 64)
		if err != nil && len(p.errs) < maxErrors {
			p.errs = append(p.errs, &token.PosError{Pos: t.Pos, Msg: err.Error()})
		}
		return p.newNum(v, t.Pos)
	case token.IDENT:
		t := p.next()
		if p.at(token.LBRACK) {
			p.next()
			sub := p.expr()
			p.expect(token.RBRACK)
			ix := carve(&p.slab.index)
			*ix = ast.Index{Name: t.Lit, NamePos: t.Pos, Sub: sub}
			return ix
		}
		return p.newIdent(t.Lit, t.Pos)
	case token.LPAREN:
		p.next()
		e := p.expr()
		p.expect(token.RPAREN)
		return e
	case token.MINUS:
		t := p.next()
		u := carve(&p.slab.unary)
		*u = ast.Unary{Op: token.MINUS, X: p.primary(), OpPos: t.Pos}
		return u
	default:
		p.errorf("unexpected %s in expression", p.cur())
		t := p.cur()
		p.next()
		return p.newNum(0, t.Pos)
	}
}
