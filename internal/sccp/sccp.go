// Package sccp implements sparse conditional constant propagation
// (Wegman and Zadeck, TOPLAS 1991 — the paper's [WZ91]) over the SSA
// form. The classifier uses it to resolve the initial values of
// induction variables ("often the initial value coming in from outside
// the loop can be evaluated and substituted, using an algorithm such as
// constant propagation", paper §3.1).
package sccp

import (
	"fmt"

	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/obs"
	"beyondiv/internal/safemath"
	"beyondiv/internal/scratch"
	"beyondiv/internal/ssa"
)

// state is a lattice cell: Top (undetermined), a constant, or Bottom
// (varying).
type state uint8

const (
	top state = iota
	constant
	bottom
)

// cell is one lattice value.
type cell struct {
	state state
	val   int64
}

// Result holds the analysis outcome.
type Result struct {
	cells      []cell
	execBlock  []bool
	info       *ssa.Info
	constCount int
}

// Const returns the propagated constant value of v, if any. Values
// created after the analysis ran (e.g. by transformations) are unknown.
func (r *Result) Const(v *ir.Value) (int64, bool) {
	if v.ID >= len(r.cells) {
		if v.Op == ir.OpConst {
			return v.Const, true
		}
		return 0, false
	}
	c := r.cells[v.ID]
	return c.val, c.state == constant
}

// Executable reports whether the analysis proved block b reachable
// under constant-folded branches.
func (r *Result) Executable(b *ir.Block) bool { return r.execBlock[b.ID] }

// NumConstants returns how many values were proven constant.
func (r *Result) NumConstants() int { return r.constCount }

// String summarizes the constants found, for diagnostics.
func (r *Result) String() string {
	out := ""
	for _, b := range r.info.Func.Blocks {
		for _, v := range b.Values {
			if c := r.cells[v.ID]; c.state == constant {
				out += fmt.Sprintf("%s = %d\n", v, c.val)
			}
		}
	}
	return out
}

// Run performs the propagation: no telemetry, no limits, fresh tables.
func Run(info *ssa.Info) *Result { return RunScratch(info, nil, guard.Limits{}, nil) }

// solveScratch holds the propagation's transient dense tables, reusable
// across runs via the scratch arena. Everything retained in the Result
// is freshly allocated.
type solveScratch struct {
	users     [][]*ir.Value // value ID → consuming values (SSA edges)
	controlOf [][]*ir.Block // value ID → blocks whose branch condition it is
	blocks    []*ir.Block   // block ID → block
	edgeSet   []bool        // from.ID*2 + succ slot → edge executable
	flowWork  []flowEdge    // CFG edges to process
	ssaWork   []*ir.Value   // values whose inputs changed
	inSSAWork []bool        // value ID → already queued
}

// RunScratch is Run under a run, the entry the engine's sccp pass
// calls. rec (nil: off) receives an "sccp" phase span plus a counter of
// values proven constant. Every worklist pop charges lim's step
// budget, so a pathological lattice cannot spin the propagation
// forever (the budget panics with a *guard.LimitError, contained by the
// engine). Folds that would overflow int64 degrade the cell to bottom —
// "varying" — which is the conservative direction for every consumer,
// and are counted under "sccp.fold.overflow". ar lends the transient
// working tables; nil allocates fresh tables for a one-shot run.
func RunScratch(info *ssa.Info, rec *obs.Recorder, lim guard.Limits, ar *scratch.Arena) *Result {
	span := rec.Phase("sccp")
	defer span.End()
	budget := lim.Budget("sccp")
	f := info.Func
	r := &Result{
		cells:     make([]cell, f.NumValues()),
		execBlock: make([]bool, f.NumBlocks()),
		info:      info,
	}

	var scr *solveScratch
	if ar != nil {
		scr = scratch.Get[solveScratch](&ar.SCCP)
	} else {
		scr = &solveScratch{}
	}
	users := scratch.GrowReuse(scr.users, f.NumValues())
	controlOf := scratch.GrowReuse(scr.controlOf, f.NumValues())
	blocks := scratch.Grow(scr.blocks, f.NumBlocks())
	for _, b := range f.Blocks {
		blocks[b.ID] = b
		for _, v := range b.Values {
			for _, a := range v.Args {
				users[a.ID] = append(users[a.ID], v)
			}
		}
		if b.Control != nil {
			controlOf[b.Control.ID] = append(controlOf[b.Control.ID], b)
		}
	}

	// Executable CFG edges, indexed from.ID*2 + successor slot (every
	// block has at most two successors); φ meets consult it. A
	// conditional with both arms targeting the same block marks and
	// tests both slots together, preserving the collapsed semantics the
	// (from,to)-keyed set had.
	execEdge := edgeSet(scratch.Grow(scr.edgeSet, 2*f.NumBlocks()))

	flowWork := scr.flowWork[:0] // CFG edges to process
	ssaWork := scr.ssaWork[:0]   // values whose inputs changed
	inSSAWork := scratch.Grow(scr.inSSAWork, f.NumValues())
	defer func() {
		scr.users, scr.controlOf, scr.blocks = users, controlOf, blocks
		scr.edgeSet, scr.inSSAWork = []bool(execEdge), inSSAWork
		scr.flowWork, scr.ssaWork = flowWork[:0], ssaWork[:0]
	}()

	pushSSA := func(v *ir.Value) {
		if !inSSAWork[v.ID] {
			inSSAWork[v.ID] = true
			ssaWork = append(ssaWork, v)
		}
	}

	// lower updates v's cell to at most next, pushing users on change.
	lower := func(v *ir.Value, next cell) {
		cur := r.cells[v.ID]
		if cur.state == bottom {
			return
		}
		if next.state == cur.state && (cur.state != constant || next.val == cur.val) {
			return
		}
		// Monotonic: top -> constant -> bottom.
		if cur.state == constant && next.state == constant && cur.val != next.val {
			next = cell{state: bottom}
		}
		if next.state < cur.state {
			return
		}
		r.cells[v.ID] = next
		for _, u := range users[v.ID] {
			pushSSA(u)
		}
		for _, b := range controlOf[v.ID] {
			if r.execBlock[b.ID] {
				flowWork = appendTargets(flowWork, b, next)
			}
		}
	}

	evalValue := func(v *ir.Value) {
		switch v.Op {
		case ir.OpConst:
			lower(v, cell{state: constant, val: v.Const})
		case ir.OpParam, ir.OpLoadElem:
			lower(v, cell{state: bottom})
		case ir.OpCopy:
			lower(v, r.cells[v.Args[0].ID])
		case ir.OpStoreElem:
			// A store's value is the value stored (paper §5.1).
			lower(v, r.cells[v.Args[1].ID])
		case ir.OpPhi:
			meet := cell{state: top}
			for i, a := range v.Args {
				if !execEdge.has(v.Block.Preds[i], v.Block.ID) {
					continue
				}
				meet = meetCells(meet, r.cells[a.ID])
			}
			lower(v, meet)
		case ir.OpNeg:
			x := r.cells[v.Args[0].ID]
			switch x.state {
			case constant:
				if n, ok := safemath.Neg(x.val); ok {
					lower(v, cell{state: constant, val: n})
				} else {
					rec.Add("sccp.fold.overflow", 1)
					lower(v, cell{state: bottom})
				}
			case bottom:
				lower(v, cell{state: bottom})
			}
		default:
			x, y := r.cells[v.Args[0].ID], r.cells[v.Args[1].ID]
			if x.state == constant && y.state == constant {
				if c, ok := foldBinary(v.Op, x.val, y.val); ok {
					lower(v, cell{state: constant, val: c})
				} else {
					rec.Add("sccp.fold.overflow", 1)
					lower(v, cell{state: bottom})
				}
			} else if x.state == bottom || y.state == bottom {
				// A few operators are constant with one varying input.
				if c, ok := foldPartial(v.Op, x, y); ok {
					lower(v, cell{state: constant, val: c})
				} else {
					lower(v, cell{state: bottom})
				}
			}
		}
	}

	// Seed with the entry block.
	markBlock := func(b *ir.Block) {
		if r.execBlock[b.ID] {
			return
		}
		r.execBlock[b.ID] = true
		for _, v := range b.Values {
			pushSSA(v)
		}
	}
	markBlock(f.Entry)

	// Entry's outgoing edges under the current (empty) lattice: a plain
	// block contributes its single edge now; a conditional contributes
	// its edges once its control value lowers (the controlOf hook).
	flowWork = appendCurrentOut(flowWork, f.Entry, r)

	for len(flowWork) > 0 || len(ssaWork) > 0 {
		for len(ssaWork) > 0 {
			budget.Step()
			v := ssaWork[len(ssaWork)-1]
			ssaWork = ssaWork[:len(ssaWork)-1]
			inSSAWork[v.ID] = false
			if r.execBlock[v.Block.ID] {
				evalValue(v)
			}
		}
		if len(flowWork) > 0 {
			budget.Step()
			e := flowWork[len(flowWork)-1]
			flowWork = flowWork[:len(flowWork)-1]
			from := blocks[e.from]
			if execEdge.has(from, e.to) {
				continue
			}
			execEdge.mark(from, e.to)
			to := blocks[e.to]
			// Re-evaluate φs in the target: a new edge became executable.
			for _, v := range to.Values {
				if v.Op == ir.OpPhi {
					pushSSA(v)
				} else {
					break
				}
			}
			first := !r.execBlock[to.ID]
			markBlock(to)
			if first {
				flowWork = appendCurrentOut(flowWork, to, r)
			}
		}
	}

	for _, c := range r.cells {
		if c.state == constant {
			r.constCount++
		}
	}
	rec.Add("sccp.constants", int64(r.constCount))
	return r
}

// edgeSet tracks executable CFG edges densely: slot from.ID*2+i is edge
// i of block from. Both has and mark scan every successor slot matching
// the target block so that a two-armed branch into one block behaves as
// a single collapsed edge, exactly like a (from,to)-keyed set.
type edgeSet []bool

func (s edgeSet) has(from *ir.Block, to int) bool {
	for i, succ := range from.Succs {
		if succ.ID == to && s[from.ID*2+i] {
			return true
		}
	}
	return false
}

func (s edgeSet) mark(from *ir.Block, to int) {
	for i, succ := range from.Succs {
		if succ.ID == to {
			s[from.ID*2+i] = true
		}
	}
}

func meetCells(a, b cell) cell {
	switch {
	case a.state == top:
		return b
	case b.state == top:
		return a
	case a.state == bottom || b.state == bottom:
		return cell{state: bottom}
	case a.val == b.val:
		return a
	default:
		return cell{state: bottom}
	}
}

// flowEdge identifies a CFG edge by block IDs.
type flowEdge struct{ from, to int }

// appendTargets appends the executable out-edges of b given its control
// lattice value.
func appendTargets(dst []flowEdge, b *ir.Block, ctl cell) []flowEdge {
	switch b.Kind {
	case ir.BlockPlain:
		return append(dst, flowEdge{b.ID, b.Succs[0].ID})
	case ir.BlockExit:
		return dst
	}
	switch ctl.state {
	case constant:
		if ctl.val != 0 {
			return append(dst, flowEdge{b.ID, b.Succs[0].ID})
		}
		return append(dst, flowEdge{b.ID, b.Succs[1].ID})
	case bottom:
		return append(dst, flowEdge{b.ID, b.Succs[0].ID}, flowEdge{b.ID, b.Succs[1].ID})
	default: // top: not yet known, wait
		return dst
	}
}

// appendCurrentOut appends the out-edges known executable under b's
// current control lattice; a still-top conditional contributes nothing
// yet (the controlOf hook in lower fires when it resolves).
func appendCurrentOut(dst []flowEdge, b *ir.Block, r *Result) []flowEdge {
	if b.Kind == ir.BlockIf {
		return appendTargets(dst, b, r.cells[b.Control.ID])
	}
	return appendTargets(dst, b, cell{state: bottom})
}

// foldBinary evaluates op on constants with the shared interpreter
// semantics (x/0 == 0; x**k == 0 for k < 0). It reports ok=false when
// the exact result does not fit in int64: the interpreter wraps there,
// so folding would bake a wrapped value into the lattice and the caller
// must degrade to bottom instead. Exponentiation is overflow-checked
// square-and-multiply — a hostile `x ** 9e18` costs at most 63
// iterations instead of one loop iteration per unit of the exponent.
func foldBinary(op ir.Op, x, y int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return safemath.Add(x, y)
	case ir.OpSub:
		return safemath.Sub(x, y)
	case ir.OpMul:
		return safemath.Mul(x, y)
	case ir.OpDiv:
		if y == 0 {
			return 0, true
		}
		if x == safemath.MinInt64 && y == -1 {
			return 0, false // the one quotient that overflows
		}
		return x / y, true
	case ir.OpExp:
		if y < 0 {
			return 0, true
		}
		return safemath.Pow(x, y)
	case ir.OpLess:
		return b2i(x < y), true
	case ir.OpLeq:
		return b2i(x <= y), true
	case ir.OpGreater:
		return b2i(x > y), true
	case ir.OpGeq:
		return b2i(x >= y), true
	case ir.OpEq:
		return b2i(x == y), true
	case ir.OpNeq:
		return b2i(x != y), true
	}
	panic(fmt.Sprintf("sccp: cannot fold %s", op))
}

// foldPartial folds operators that are constant with a single known
// operand: x*0, 0*x, and 0**k for k known positive are the useful cases.
func foldPartial(op ir.Op, x, y cell) (int64, bool) {
	if op == ir.OpMul {
		if x.state == constant && x.val == 0 {
			return 0, true
		}
		if y.state == constant && y.val == 0 {
			return 0, true
		}
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
