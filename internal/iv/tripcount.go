package iv

import (
	"fmt"

	"beyondiv/internal/dom"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/rational"
)

// TripState says what is known about a loop's iteration count.
type TripState int

// Trip states.
const (
	TripUnknown TripState = iota
	TripFinite
	TripInfinite
)

// TripCount is the §5.2 analysis result for one loop. For TripFinite,
// the count is ⌈Numer/Div⌉ with Numer an affine Expr and Div a positive
// integer; Expr is the affine simplification when Div divides exactly
// (always when Div == 1), nil otherwise. Counts follow the paper's
// convention: the symbolic form assumes the loop executes at least once
// being nonnegative (a symbolic ⌈n/1⌉ with n < 0 at runtime means zero
// iterations; callers comparing against runtime must clamp at zero).
type TripCount struct {
	State TripState
	Expr  *Expr // affine count; nil unless exactly representable
	Numer *Expr // ⌈Numer/Div⌉ form for Finite counts
	Div   int64
	// Exit is the block whose conditional branch leaves the loop (the
	// source of the counted exit edge); nil unless State is TripFinite.
	Exit *ir.Block
	// Guard, when non-nil, is an expression that must be nonnegative
	// for Expr to equal the executed iteration count (symbolic counts
	// implicitly clamp at zero; exit values are only propagated once a
	// consumer proves the guard, see loopCtx.checkedExit).
	Guard *Expr
	// MaxConst, when HasMax, bounds the iteration count from above even
	// when the exact count is unknown — §5.2's multi-exit case ("it may
	// be able to find a maximum trip count; this information is useful
	// for dependence testing, to place bounds on the solution space").
	MaxConst int64
	HasMax   bool
}

// Const returns the constant trip count, if known.
func (tc *TripCount) Const() (int64, bool) {
	if tc == nil || tc.State != TripFinite || tc.Expr == nil {
		return 0, false
	}
	c, ok := tc.Expr.ConstVal()
	if !ok {
		return 0, false
	}
	return c.Num(), c.IsInt()
}

// String renders the trip count.
func (tc *TripCount) String() string {
	switch {
	case tc == nil || tc.State == TripUnknown:
		return "unknown"
	case tc.State == TripInfinite:
		return "infinite"
	case tc.Expr != nil:
		return tc.Expr.String()
	default:
		return fmt.Sprintf("ceil((%s)/%d)", tc.Numer, tc.Div)
	}
}

// computeTripCount implements §5.2: canonicalize each exit condition to
// "stay while d > 0", classify d as a linear sequence (L, i, s), and
// read the count off the tuple. Single-exit loops whose test runs every
// iteration get an exact count; multi-exit loops get the minimum of the
// constant per-exit counts as an upper bound ("maximum trip count").
func (a *Analysis) computeTripCount(l *loops.Loop) *TripCount {
	exits := l.ExitEdges()
	if len(exits) == 0 {
		return &TripCount{State: TripInfinite}
	}
	// An exit count is meaningful only when its test executes on every
	// iteration (the test block dominates every latch); a test hidden
	// under a conditional can be skipped, so its sequence says nothing
	// about when the loop actually leaves.
	everyIteration := func(b *ir.Block) bool {
		return dominatesAll(a.SSA.Dom, b, l.Latches)
	}

	if len(exits) == 1 {
		e := exits[0]
		if !everyIteration(e[0]) {
			return &TripCount{State: TripUnknown}
		}
		tc := a.exitTripCount(l, e[0], e[1])
		if tc == nil {
			return &TripCount{State: TripUnknown}
		}
		if c, ok := tc.Const(); ok && tc.State == TripFinite {
			tc.MaxConst, tc.HasMax = c, true
		}
		return tc
	}

	// Multi-exit: each always-executed finite test bounds the count from
	// above; the loop leaves at the first one that fires.
	out := &TripCount{State: TripUnknown}
	for _, e := range exits {
		if !everyIteration(e[0]) {
			continue
		}
		tc := a.exitTripCount(l, e[0], e[1])
		if tc == nil || tc.State != TripFinite {
			continue
		}
		if c, ok := tc.Const(); ok {
			if !out.HasMax || c < out.MaxConst {
				out.MaxConst, out.HasMax = c, true
			}
		}
	}
	return out
}

// exitTripCount analyzes one exit edge (from exitBlock to target) in
// isolation: the count of iterations before this test, were it the only
// exit, would fire.
func (a *Analysis) exitTripCount(l *loops.Loop, exitBlock, target *ir.Block) *TripCount {
	if exitBlock.Kind != ir.BlockIf || exitBlock.Control == nil {
		return nil
	}
	cond := exitBlock.Control
	exitOnTrue := target == exitBlock.Succs[0]

	// Equality exits need divisibility reasoning rather than the
	// stay-positive canonical form.
	op := cond.Op
	if !exitOnTrue {
		op = negateCompare(op)
	}
	if op == ir.OpEq {
		return a.equalityTripCount(l, cond, exitBlock)
	}
	if op == ir.OpNeq {
		return nil // exit-while-unequal: no useful linear form
	}

	d := a.stayPositive(l, cond, exitOnTrue)
	if d == nil || d.Kind == Unknown {
		return nil
	}

	switch d.Kind {
	case Invariant:
		if c, ok := d.Expr.ConstVal(); ok {
			if c.Sign() <= 0 {
				return &TripCount{State: TripFinite, Expr: IntExpr(0), Numer: IntExpr(0), Div: 1, Exit: exitBlock}
			}
			return &TripCount{State: TripInfinite}
		}
		return nil
	case Linear:
		s, sOK := d.Step.ConstVal()
		if !sOK {
			return nil
		}
		i, iOK := d.Init.ConstVal()
		switch {
		case s.Sign() >= 0:
			// Never shrinks: infinite if it starts positive.
			if iOK && i.Sign() <= 0 {
				return &TripCount{State: TripFinite, Expr: IntExpr(0), Numer: IntExpr(0), Div: 1, Exit: exitBlock}
			}
			if iOK {
				return &TripCount{State: TripInfinite}
			}
			return nil
		default:
			neg := s.Neg()
			div, ok := neg.Int()
			if !ok {
				return nil
			}
			tc := &TripCount{State: TripFinite, Numer: d.Init, Div: div, Exit: exitBlock}
			if iOK {
				// Constant count: max(0, ceil(i/div)).
				n, ok := ceilDivRat(i, div)
				if !ok {
					// i/div left exact arithmetic (NaR): no count claim.
					if rec := a.rec; rec != nil {
						rec.Count("iv.tripcount.overflow")
					}
					return nil
				}
				if n < 0 {
					n = 0
				}
				tc.Expr = IntExpr(n)
				tc.Numer = IntExpr(n)
				tc.Div = 1
			} else if div == 1 {
				tc.Expr = d.Init
				tc.Guard = d.Init // symbolic: exact only when ≥ 0
			}
			return tc
		}
	}
	return nil
}

// equalityTripCount handles `exit when a == b` (§5.2's remaining
// integer comparison): with d = a - b a linear sequence (i, s), the
// loop exits at the first h with i + s·h = 0 — which exists only when
// s divides i exactly and the quotient lands at h ≥ 0; otherwise the
// test never fires and this exit contributes infinity.
func (a *Analysis) equalityTripCount(l *loops.Loop, cond *ir.Value, exitBlock *ir.Block) *TripCount {
	x := a.ClassOf(l, cond.Args[0])
	y := a.ClassOf(l, cond.Args[1])
	d := subCls(l, x, y)
	switch d.Kind {
	case Invariant:
		if c, ok := d.Expr.ConstVal(); ok {
			if c.IsZero() {
				return &TripCount{State: TripFinite, Expr: IntExpr(0), Numer: IntExpr(0), Div: 1, Exit: exitBlock}
			}
			return &TripCount{State: TripInfinite}
		}
	case Linear:
		i, s, ok := d.LinearConst()
		if !ok {
			return nil
		}
		if s.IsZero() {
			if i.IsZero() {
				return &TripCount{State: TripFinite, Expr: IntExpr(0), Numer: IntExpr(0), Div: 1, Exit: exitBlock}
			}
			return &TripCount{State: TripInfinite}
		}
		h := i.Neg().Div(s)
		if hv, isInt := h.Int(); isInt && hv >= 0 {
			return &TripCount{State: TripFinite, Expr: IntExpr(hv), Numer: IntExpr(hv), Div: 1, Exit: exitBlock}
		}
		// Steps over the target without hitting it.
		return &TripCount{State: TripInfinite}
	}
	return nil
}

// ceilDivRat computes ceil(x / d) for integer d > 0. It reports
// ok=false when x is NaR or the division overflows into NaR — dividing
// by Den() without the check would be a divide-by-zero panic.
func ceilDivRat(x rational.Rat, d int64) (int64, bool) {
	q := x.Div(rational.FromInt(d))
	if !q.Valid() {
		return 0, false
	}
	// ceil of a rational p/q.
	n, den := q.Num(), q.Den()
	out := n / den
	if n%den != 0 && n > 0 {
		out++
	}
	return out, true
}

// stayPositive builds the classification of the §5.2 canonical
// expression d with "stay in the loop while d > 0".
func (a *Analysis) stayPositive(l *loops.Loop, cond *ir.Value, exitOnTrue bool) *Classification {
	x := a.ClassOf(l, cond.Args[0])
	y := a.ClassOf(l, cond.Args[1])
	if x.Kind == Unknown || y.Kind == Unknown {
		return nil
	}
	// Normalize to the exit-taken comparison.
	op := cond.Op
	if !exitOnTrue {
		op = negateCompare(op)
	}
	// d per the conversion table: integers let us fold ≤ into < ± 1.
	one := invariant(l, IntExpr(1))
	switch op {
	case ir.OpLess: // exit when x < y: stay while x - y >= 0
		return addCls(l, subCls(l, x, y), one)
	case ir.OpLeq: // exit when x <= y: stay while x - y > 0
		return subCls(l, x, y)
	case ir.OpGreater: // exit when x > y: stay while y - x >= 0
		return addCls(l, subCls(l, y, x), one)
	case ir.OpGeq: // exit when x >= y: stay while y - x > 0
		return subCls(l, y, x)
	default:
		// Equality exits need divisibility reasoning (§5.2 notes only
		// inequalities); unknown.
		return nil
	}
}

func negateCompare(op ir.Op) ir.Op {
	switch op {
	case ir.OpLess:
		return ir.OpGeq
	case ir.OpLeq:
		return ir.OpGreater
	case ir.OpGreater:
		return ir.OpLeq
	case ir.OpGeq:
		return ir.OpLess
	case ir.OpEq:
		return ir.OpNeq
	case ir.OpNeq:
		return ir.OpEq
	}
	return ir.OpInvalid
}

// exitInfo pairs an exit-value expression with the guards (expressions
// that must be nonnegative at runtime) under which it is exact.
type exitInfo struct {
	expr   *Expr
	guards []*Expr
}

// exitValue computes the value of v (defined in some loop) after that
// loop exits, as an affine Expr over values external to the loop
// (paper §5.3: init + tc·step, plus one extra step for code above the
// exit test). The guards carry symbolic trip-count nonnegativity
// obligations; consumers must prove them (loopCtx.checkedExit) before
// relying on the expression. Results are cached.
func (a *Analysis) exitValue(v *ir.Value) exitInfo {
	if a.opts.DisableExitValues {
		return exitInfo{}
	}
	if e, ok := a.exits[v]; ok {
		return e
	}
	a.exits[v] = exitInfo{} // cut recursion
	e := a.computeExitValue(v)
	a.exits[v] = e
	return e
}

func (a *Analysis) computeExitValue(v *ir.Value) exitInfo {
	l := a.Forest.InnermostContaining(v.Block)
	if l == nil {
		return exitInfo{expr: VarExpr(v)}
	}
	cls := a.byLoop[l][v]
	if cls == nil {
		return exitInfo{}
	}
	switch cls.Kind {
	case Invariant:
		return exitInfo{expr: cls.Expr} // nil when not affine: unknown
	case Linear:
		tc := a.trips[l]
		if tc == nil || tc.State != TripFinite || tc.Expr == nil || tc.Exit == nil {
			return exitInfo{}
		}
		if cls.Init == nil || cls.Step == nil {
			return exitInfo{}
		}
		// Executions: tc+1 when v runs before the exit test fires
		// (v's block dominates the exit block), tc when v runs on
		// every complete iteration (dominates all latches).
		dom := a.SSA.Dom
		var execsMinus1 *Expr
		switch {
		case dom.Dominates(v.Block, tc.Exit):
			execsMinus1 = tc.Expr
		case dominatesAll(dom, v.Block, l.Latches):
			execsMinus1 = AddConst(tc.Expr, rational.FromInt(-1))
		default:
			return exitInfo{}
		}
		out := exitInfo{expr: AddExpr(cls.Init, MulExpr(execsMinus1, cls.Step))}
		if tc.Guard != nil {
			out.guards = append(out.guards, tc.Guard)
		}
		return out
	default:
		return exitInfo{}
	}
}

func dominatesAll(t *dom.Tree, b *ir.Block, list []*ir.Block) bool {
	for _, x := range list {
		if !t.Dominates(b, x) {
			return false
		}
	}
	return len(list) > 0
}
