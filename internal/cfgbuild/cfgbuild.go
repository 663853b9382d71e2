// Package cfgbuild lowers the AST into the tuple-instruction CFG of
// internal/ir.
//
// Loop lowering shapes (all loops become top-test natural loops with a
// dedicated preheader, a header that performs the exit test where one
// exists, and a latch holding the induction update for counted loops):
//
//	for v = lo to hi [by s]:
//	    pre:    v = lo                      → header
//	    header: if v <= hi (>= for s < 0)   → body | after
//	    body:   ...                         → latch
//	    latch:  v = v + s                   → header
//
//	while c:  header: if c → body | after;  body → header
//
//	loop:     header: body...; exit jumps to after; last block → header
//
// The `to` bound and `by` step are re-evaluated each iteration (C-style
// semantics); the direction of the termination test is chosen from the
// sign of a constant step and assumed upward for symbolic steps, matching
// the paper's treatment of exit conditions as classified expressions.
//
// Scalar reads lower to LoadVar and writes to StoreVar; both are removed
// by SSA construction. A direct scalar-to-scalar assignment `x = y`
// lowers through an explicit Copy so that x keeps a distinct SSA name —
// the paper's families of variables (e.g. the periodic rotation in
// Figure 5) depend on those names staying visible.
package cfgbuild

import (
	"fmt"

	"beyondiv/internal/ast"
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/obs"
	"beyondiv/internal/token"
)

// LoopInfo records the source loop structure discovered while lowering;
// the loop analysis proper (internal/loops) recomputes structure from
// the CFG, but labels and source order come from here.
type LoopInfo struct {
	Label  string    // source label, or synthesized "L<n>"
	Header *ir.Block // loop header block
	Var    string    // counted-loop variable, "" otherwise
}

// Result is the lowering output.
type Result struct {
	Func  *ir.Func
	Loops []LoopInfo
}

type builder struct {
	f     *ir.Func
	cur   *ir.Block // current insertion block; nil after a terminator
	loops []LoopInfo
	// exitTargets is the stack of after-blocks for enclosing loops.
	exitTargets []*ir.Block
	nextLabel   int
	// maxValues caps how many IR values lowering may create; zero is
	// unchecked. See BuildGuarded.
	maxValues int
}

// checkSize enforces the IR-value ceiling; called per statement and per
// expression node so hostile input is cut off close to the ceiling.
func (b *builder) checkSize() {
	guard.Check("cfgbuild", "IR values", int64(b.f.NumValues()), int64(b.maxValues))
}

// Build lowers a parsed file: no telemetry, no limits.
func Build(file *ast.File) *Result { return BuildGuarded(file, nil, guard.Limits{}) }

// BuildGuarded is Build under a run, the entry the engine's cfgbuild
// pass calls. rec (nil: off) receives a "cfgbuild" phase span plus
// block and value counters. Lowering stops (by panicking with a
// *guard.LimitError, contained by the engine) once the function holds
// more than lim.MaxSSAValues IR values. Recursion depth needs no
// separate ceiling here — the parser already bounds AST depth.
func BuildGuarded(file *ast.File, rec *obs.Recorder, lim guard.Limits) *Result {
	span := rec.Phase("cfgbuild")
	defer span.End()
	b := &builder{f: ir.NewFunc(), maxValues: lim.MaxSSAValues}
	entry := b.f.NewBlock(ir.BlockPlain)
	entry.Comment = "entry"
	b.f.Entry = entry
	b.cur = entry

	b.stmts(file.Stmts)

	exit := b.f.NewBlock(ir.BlockExit)
	exit.Comment = "exit"
	b.f.Exit = exit
	if b.cur != nil {
		b.jump(b.cur, exit)
	}
	b.prune()
	// Drop loops whose headers sat in unreachable code.
	kept := make(map[*ir.Block]bool, len(b.f.Blocks))
	for _, blk := range b.f.Blocks {
		kept[blk] = true
	}
	var liveLoops []LoopInfo
	for _, li := range b.loops {
		if kept[li.Header] {
			liveLoops = append(liveLoops, li)
		}
	}
	if rec != nil {
		values := 0
		for _, blk := range b.f.Blocks {
			values += len(blk.Values)
		}
		rec.Add("cfg.blocks", int64(len(b.f.Blocks)))
		rec.Add("cfg.values", int64(values))
	}
	return &Result{Func: b.f, Loops: liveLoops}
}

func (b *builder) jump(from, to *ir.Block) {
	from.Kind = ir.BlockPlain
	from.AddEdge(to)
}

func (b *builder) branch(from *ir.Block, cond *ir.Value, then, els *ir.Block) {
	from.Kind = ir.BlockIf
	from.Control = cond
	from.AddEdge(then)
	from.AddEdge(els)
}

// block returns the current insertion block, starting an unreachable
// continuation if control already transferred (e.g. code after exit).
func (b *builder) block() *ir.Block {
	if b.cur == nil {
		nb := b.f.NewBlock(ir.BlockPlain)
		nb.Comment = "unreachable"
		b.cur = nb
	}
	return b.cur
}

func (b *builder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) label(explicit string) string {
	b.nextLabel++
	if explicit != "" {
		return explicit
	}
	return fmt.Sprintf("L%d", b.nextLabel)
}

func (b *builder) stmt(s ast.Stmt) {
	b.checkSize()
	switch v := s.(type) {
	case *ast.Assign:
		b.assign(v)
	case *ast.For:
		b.forStmt(v)
	case *ast.Loop:
		b.loopStmt(v)
	case *ast.While:
		b.whileStmt(v)
	case *ast.If:
		b.ifStmt(v)
	case *ast.Exit:
		if len(b.exitTargets) == 0 {
			// exit outside a loop ends the program; lower as jump to a
			// dangling block that prune connects to Exit.
			b.jump(b.block(), b.f.NewBlock(ir.BlockPlain))
			b.cur = nil
			return
		}
		b.jump(b.block(), b.exitTargets[len(b.exitTargets)-1])
		b.cur = nil
	case *ast.Block:
		b.stmts(v.Stmts)
	default:
		panic(fmt.Sprintf("cfgbuild: unknown statement %T", s))
	}
}

func (b *builder) assign(a *ast.Assign) {
	blk := b.block()
	switch lhs := a.LHS.(type) {
	case *ast.Ident:
		rhs := b.expr(a.RHS)
		if _, isIdent := a.RHS.(*ast.Ident); isIdent {
			// Keep x = y as a distinct SSA name (see package comment).
			cp := b.f.NewValue(blk, ir.OpCopy, rhs)
			cp.Pos = a.RHS.Pos()
			rhs = cp
		}
		st := b.f.NewValue(blk, ir.OpStoreVar, rhs)
		st.Var = lhs.Name
		st.Pos = lhs.NamePos
	case *ast.Index:
		idx := b.expr(lhs.Sub)
		rhs := b.expr(a.RHS)
		st := b.f.NewValue(blk, ir.OpStoreElem, idx, rhs)
		st.Var = lhs.Name
		st.Pos = lhs.NamePos
	default:
		panic(fmt.Sprintf("cfgbuild: bad assignment target %T", a.LHS))
	}
}

func (b *builder) expr(e ast.Expr) *ir.Value {
	b.checkSize()
	blk := b.block()
	switch v := e.(type) {
	case *ast.Num:
		c := b.f.NewValue(blk, ir.OpConst)
		c.Const = v.Value
		c.Pos = v.ValPos
		return c
	case *ast.Ident:
		ld := b.f.NewValue(blk, ir.OpLoadVar)
		ld.Var = v.Name
		ld.Pos = v.NamePos
		return ld
	case *ast.Index:
		idx := b.expr(v.Sub)
		ld := b.f.NewValue(b.block(), ir.OpLoadElem, idx)
		ld.Var = v.Name
		ld.Pos = v.NamePos
		return ld
	case *ast.Unary:
		x := b.expr(v.X)
		n := b.f.NewValue(b.block(), ir.OpNeg, x)
		n.Pos = v.OpPos
		return n
	case *ast.Bin:
		x := b.expr(v.X)
		y := b.expr(v.Y)
		op, ok := binOp(v.Op)
		if !ok {
			panic(fmt.Sprintf("cfgbuild: bad binary operator %s", v.Op))
		}
		r := b.f.NewValue(b.block(), op, x, y)
		r.Pos = v.Pos()
		return r
	default:
		panic(fmt.Sprintf("cfgbuild: unknown expression %T", e))
	}
}

func binOp(k token.Kind) (ir.Op, bool) {
	switch k {
	case token.PLUS:
		return ir.OpAdd, true
	case token.MINUS:
		return ir.OpSub, true
	case token.STAR:
		return ir.OpMul, true
	case token.SLASH:
		return ir.OpDiv, true
	case token.POW:
		return ir.OpExp, true
	case token.LT:
		return ir.OpLess, true
	case token.LE:
		return ir.OpLeq, true
	case token.GT:
		return ir.OpGreater, true
	case token.GE:
		return ir.OpGeq, true
	case token.EQ:
		return ir.OpEq, true
	case token.NE:
		return ir.OpNeq, true
	}
	return ir.OpInvalid, false
}

// ConstStepSign extracts the sign of a constant `by` step expression:
// +1 or -1 for constants, 0 when the step is symbolic. A constant zero
// step is treated as upward. The AST interpreter (internal/interp) uses
// the same rule so that semantics match the lowered CFG exactly.
func ConstStepSign(e ast.Expr) int {
	switch v := e.(type) {
	case *ast.Num:
		if v.Value < 0 {
			return -1
		}
		return 1 // zero step: degenerate; treat as upward
	case *ast.Unary:
		return -ConstStepSign(v.X)
	}
	return 0
}

func (b *builder) forStmt(s *ast.For) {
	lbl := b.label(s.Label)
	pre := b.block()
	pre.Comment = lbl + ".preheader"

	// v = lo in the preheader. An identifier bound is wrapped in a Copy
	// so the loop variable keeps its own SSA name (see package comment).
	lo := b.expr(s.Lo)
	if _, isIdent := s.Lo.(*ast.Ident); isIdent {
		cp := b.f.NewValue(pre, ir.OpCopy, lo)
		cp.Pos = s.Lo.Pos()
		lo = cp
	}
	st := b.f.NewValue(pre, ir.OpStoreVar, lo)
	st.Var = s.Var.Name
	st.Pos = s.Var.NamePos

	header := b.f.NewBlock(ir.BlockIf)
	header.Comment = lbl + ".header"
	body := b.f.NewBlock(ir.BlockPlain)
	body.Comment = lbl + ".body"
	latch := b.f.NewBlock(ir.BlockPlain)
	latch.Comment = lbl + ".latch"
	after := b.f.NewBlock(ir.BlockPlain)
	after.Comment = lbl + ".after"

	b.jump(pre, header)

	// Exit test in the header: stay while v <= hi (v >= hi when the
	// step is a negative constant).
	b.cur = header
	ld := b.f.NewValue(header, ir.OpLoadVar)
	ld.Var = s.Var.Name
	ld.Pos = s.Var.NamePos
	hi := b.expr(s.Hi)
	stayOp := ir.OpLeq
	if s.Step != nil && ConstStepSign(s.Step) < 0 {
		stayOp = ir.OpGeq
	}
	cond := b.f.NewValue(header, stayOp, ld, hi)
	cond.Pos = s.KwPos
	b.branch(header, cond, body, after)

	b.loops = append(b.loops, LoopInfo{Label: lbl, Header: header, Var: s.Var.Name})

	// Body.
	b.cur = body
	b.exitTargets = append(b.exitTargets, after)
	b.stmts(s.Body.Stmts)
	b.exitTargets = b.exitTargets[:len(b.exitTargets)-1]
	if b.cur != nil {
		b.jump(b.cur, latch)
	}

	// Latch: v = v + step.
	b.cur = latch
	ld2 := b.f.NewValue(latch, ir.OpLoadVar)
	ld2.Var = s.Var.Name
	ld2.Pos = s.Var.NamePos
	var step *ir.Value
	if s.Step != nil {
		step = b.expr(s.Step)
	} else {
		step = b.f.NewValue(b.block(), ir.OpConst)
		step.Const = 1
	}
	add := b.f.NewValue(b.block(), ir.OpAdd, ld2, step)
	add.Pos = s.KwPos
	st2 := b.f.NewValue(b.block(), ir.OpStoreVar, add)
	st2.Var = s.Var.Name
	st2.Pos = s.Var.NamePos
	b.jump(b.block(), header)

	b.cur = after
}

func (b *builder) loopStmt(s *ast.Loop) {
	lbl := b.label(s.Label)
	pre := b.block()
	pre.Comment = lbl + ".preheader"

	header := b.f.NewBlock(ir.BlockPlain)
	header.Comment = lbl + ".header"
	after := b.f.NewBlock(ir.BlockPlain)
	after.Comment = lbl + ".after"
	b.jump(pre, header)

	b.loops = append(b.loops, LoopInfo{Label: lbl, Header: header})

	b.cur = header
	b.exitTargets = append(b.exitTargets, after)
	b.stmts(s.Body.Stmts)
	b.exitTargets = b.exitTargets[:len(b.exitTargets)-1]
	if b.cur != nil {
		b.jump(b.cur, header) // back edge
	}
	b.cur = after
}

func (b *builder) whileStmt(s *ast.While) {
	lbl := b.label(s.Label)
	pre := b.block()
	pre.Comment = lbl + ".preheader"

	header := b.f.NewBlock(ir.BlockIf)
	header.Comment = lbl + ".header"
	body := b.f.NewBlock(ir.BlockPlain)
	body.Comment = lbl + ".body"
	after := b.f.NewBlock(ir.BlockPlain)
	after.Comment = lbl + ".after"
	b.jump(pre, header)

	b.cur = header
	cond := b.expr(s.Cond)
	b.branch(header, cond, body, after)

	b.loops = append(b.loops, LoopInfo{Label: lbl, Header: header})

	b.cur = body
	b.exitTargets = append(b.exitTargets, after)
	b.stmts(s.Body.Stmts)
	b.exitTargets = b.exitTargets[:len(b.exitTargets)-1]
	if b.cur != nil {
		b.jump(b.cur, header)
	}
	b.cur = after
}

func (b *builder) ifStmt(s *ast.If) {
	cond := b.expr(s.Cond)
	then := b.f.NewBlock(ir.BlockPlain)
	then.Comment = "if.then"
	join := b.f.NewBlock(ir.BlockPlain)
	join.Comment = "if.join"

	els := join
	if s.Else != nil {
		els = b.f.NewBlock(ir.BlockPlain)
		els.Comment = "if.else"
	}
	b.branch(b.block(), cond, then, els)

	b.cur = then
	b.stmts(s.Then.Stmts)
	if b.cur != nil {
		b.jump(b.cur, join)
	}

	if s.Else != nil {
		b.cur = els
		b.stmts(s.Else.Stmts)
		if b.cur != nil {
			b.jump(b.cur, join)
		}
	}
	b.cur = join
}

// prune removes blocks unreachable from Entry and repairs predecessor
// lists; it also redirects dangling plain blocks (no successors) to Exit.
func (b *builder) prune() {
	f := b.f
	for _, blk := range f.Blocks {
		if blk.Kind == ir.BlockPlain && len(blk.Succs) == 0 && blk != f.Exit {
			b.jump(blk, f.Exit)
		}
	}
	reachable := make([]bool, f.NumBlocks())
	var stack []*ir.Block
	stack = append(stack, f.Entry)
	reachable[f.Entry.ID] = true
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range blk.Succs {
			if !reachable[s.ID] {
				reachable[s.ID] = true
				stack = append(stack, s)
			}
		}
	}
	// f.Exit survives even when unreachable (a program that never
	// terminates): consumers rely on its existence.
	reachable[f.Exit.ID] = true
	var kept []*ir.Block
	for _, blk := range f.Blocks {
		if !reachable[blk.ID] {
			continue
		}
		var preds []*ir.Block
		for _, p := range blk.Preds {
			if reachable[p.ID] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
		kept = append(kept, blk)
	}
	f.Blocks = kept
}
