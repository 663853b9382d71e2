package xform

import (
	"fmt"
	"slices"

	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
)

// Scratch is the transformation layer's arena slot (scratch.Arena.
// Xform): a generation-stamped dense done table keyed by value ID, so
// repeated transform runs on one worker reuse the allocation and reset
// by bumping the generation instead of clearing or reallocating a map.
type Scratch struct {
	gen  uint32
	done []uint32
}

// begin opens a fresh generation; stamps from prior runs become stale
// in O(1). On the (effectively unreachable) 2^32nd run the table is
// hard-cleared so stale stamps can never alias the new generation.
func (s *Scratch) begin() {
	s.gen++
	if s.gen == 0 {
		clear(s.done)
		s.gen = 1
	}
}

func (s *Scratch) marked(id int) bool { return id < len(s.done) && s.done[id] == s.gen }

func (s *Scratch) mark(id int) {
	if id >= len(s.done) {
		grown := make([]uint32, id+1+len(s.done)/2)
		copy(grown, s.done)
		s.done = grown
	}
	s.done[id] = s.gen
}

// ReduceStrength performs strength reduction on the SSA form, driven by
// the unified classification (paper §1: "the most common candidates for
// strength reduction ... are array address calculations in inner
// loops"). Every multiplicative value — Mul, Div or Exp — that the
// classifier proves Linear in a loop, (L, init, step), is replaced by a
// new induction variable maintained with an addition: a φ taking init
// on entry and φ+step around each back edge, both materialized in the
// preheader from the classification's symbolic Expr form (§5's
// induction-variable substitution).
//
// The candidate need not be a syntactic const·v product: a product
// scaled by a symbolic loop invariant qualifies, and so does a product
// of a product (4·i, then 3·k with k = 4·i), because each value carries
// its own classification. A zero step is kept: such a product is Linear
// only because it reads a header φ the loop never changes, and the
// recurrence computes it once in the preheader instead of once per
// iteration. The rewrite is exact under wrap-around int64 semantics: a
// Linear value equals init + step·h at iteration h, both expressions
// over loop-invariant atoms, and repeated addition mod 2^64 agrees with
// the folded product mod 2^64. It is gated on both expressions being
// integral with every atom dominating the preheader; the classifier's
// truncated-division algebra never classifies an IV quotient as
// Linear, so no truncation case can slip through.
//
// Returns the number of values reduced. The transformed function stays
// in valid SSA form (ssa.Verify holds). Telemetry and guard budgets are
// the engine pipeline's concern (see Passes); direct callers get the
// bare rewrite.
func ReduceStrength(a *iv.Analysis) int { return ReduceStrengthScratch(a, nil) }

// ReduceStrengthScratch is ReduceStrength against an explicit scratch
// table (nil allocates a private one), for callers holding an arena.
func ReduceStrengthScratch(a *iv.Analysis, scr *Scratch) int {
	if scr == nil {
		scr = &Scratch{}
	}
	scr.begin()
	reduced := 0
	// Inner loops first: a product is reduced at the innermost level
	// where it actually varies.
	for _, l := range a.Forest.InnerToOuter() {
		pre := l.Preheader()
		if pre == nil {
			continue
		}
		for _, m := range products(l) {
			if !scr.marked(m.ID) && reduceProduct(a, l, pre, m, reduced+1) {
				scr.mark(m.ID)
				reduced++
			}
		}
	}
	return reduced
}

// products finds the multiplicative values anywhere inside l, nested
// loops included (an address product in an inner loop may scale an
// outer IV), in deterministic order.
func products(l *loops.Loop) []*ir.Value {
	var out []*ir.Value
	for _, b := range l.Blocks {
		for _, v := range b.Values {
			switch v.Op {
			case ir.OpMul, ir.OpDiv, ir.OpExp:
				out = append(out, v)
			}
		}
	}
	slices.SortFunc(out, ir.ByID)
	return out
}

// reduceProduct replaces m with the call's nth recurrence, sr<nth>phi,
// when m classifies Linear in l with integral init and step whose atoms
// dominate the preheader.
func reduceProduct(a *iv.Analysis, l *loops.Loop, pre *ir.Block, m *ir.Value, nth int) bool {
	cls := a.ClassOf(l, m)
	if cls.Kind != iv.Linear || !materializable(a, cls.Init, pre) || !materializable(a, cls.Step, pre) {
		return false
	}
	f := a.SSA.Func
	init := materialize(f, pre, cls.Init)
	step := materialize(f, pre, cls.Step)
	phi := insertRecurrence(f, l, init, step, fmt.Sprintf("sr%d", nth))
	// Replace every use of m with the φ (m(h) == φ(h) at any point of
	// iteration h) and retire m itself.
	replaceUses(f, m, phi)
	retireValue(m, phi)
	return true
}

// insertRecurrence builds the φ-maintained linear recurrence: a φ at
// the front of l's header taking init on entry edges and φ+step on each
// back edge. init and step must be available in (dominate) the
// preheader.
func insertRecurrence(f *ir.Func, l *loops.Loop, init, step *ir.Value, name string) *ir.Value {
	phi := f.NewValue(l.Header, ir.OpPhi, make([]*ir.Value, len(l.Header.Preds))...)
	phi.Name = name + "phi"
	// NewValue appended the φ; rotate it to the front, where verification
	// (and every consumer) expects φs to live.
	vals := l.Header.Values
	copy(vals[1:], vals[:len(vals)-1])
	vals[0] = phi

	incs := map[*ir.Block]*ir.Value{}
	for _, latch := range l.Latches {
		add := f.NewValue(latch, ir.OpAdd, phi, step)
		add.Name = fmt.Sprintf("%sinc%d", name, latch.ID)
		incs[latch] = add
	}
	for i, p := range l.Header.Preds {
		if inc, isLatch := incs[p]; isLatch {
			phi.Args[i] = inc
		} else {
			phi.Args[i] = init
		}
	}
	return phi
}

// replaceUses rewrites every use of old — argument positions and block
// controls — to point at new.
func replaceUses(f *ir.Func, old, new *ir.Value) {
	for _, b := range f.Blocks {
		for _, w := range b.Values {
			if w != old {
				w.ReplaceArg(old, new)
			}
		}
		if b.Control == old {
			b.Control = new
		}
	}
}

// retireValue rewrites v's defining op into a Copy of repl. The uses of
// v have already been redirected, but v itself may be observable — it
// can carry a source variable name the interpreter reports as a final
// scalar — so it must keep producing the same number at the same
// program point rather than disappear. Unobservable retired copies are
// swept by the dce pass.
func retireValue(v, repl *ir.Value) {
	v.Op = ir.OpCopy
	v.Args = append(v.Args[:0], repl)
	v.Const = 0
	v.Var = ""
}

// materializable reports whether e can be emitted at the end of b:
// its constant part and every coefficient integral, and every atom
// dominating b.
func materializable(a *iv.Analysis, e *iv.Expr, b *ir.Block) bool {
	if e == nil || !e.Const.IsInt() {
		return false
	}
	for atom, c := range e.Terms {
		if !c.IsInt() || !a.SSA.Dom.Dominates(atom.Block, b) {
			return false
		}
	}
	return true
}

// materialize emits instructions computing an affine Expr at the end of
// block b. The Expr must be materializable in b (b is the preheader and
// its atoms are loop-external values).
func materialize(f *ir.Func, b *ir.Block, e *iv.Expr) *ir.Value {
	k, _ := e.Const.Int()
	acc := f.NewValue(b, ir.OpConst)
	acc.Const = k

	terms := make([]*ir.Value, 0, len(e.Terms))
	for v := range e.Terms {
		terms = append(terms, v)
	}
	slices.SortFunc(terms, ir.ByID)
	for _, v := range terms {
		coeff, _ := e.Terms[v].Int()
		var term *ir.Value
		if coeff == 1 {
			term = v
		} else {
			cv := f.NewValue(b, ir.OpConst)
			cv.Const = coeff
			term = f.NewValue(b, ir.OpMul, cv, v)
		}
		acc = f.NewValue(b, ir.OpAdd, acc, term)
	}
	return acc
}
