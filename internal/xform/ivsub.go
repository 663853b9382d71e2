package xform

import (
	"fmt"
	"slices"

	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
)

// SubstituteIVsScratch performs induction-variable substitution (§5): every
// multiplicative value (Mul, Div, Exp) the classifier proves Linear in
// a loop is replaced by the equivalent φ-maintained linear recurrence,
// with both the initial value and the per-iteration step materialized
// in the preheader from the classification's symbolic Expr form.
//
// This strictly generalizes ReduceStrength: the candidate need not be a
// syntactic const·v product — any value whose classification is Linear
// qualifies, including products scaled by a symbolic loop-invariant —
// and the recurrence step may itself be symbolic. The rewrite is exact
// under wrap-around int64 semantics: a Linear classification means the
// value equals Init + Step·h at iteration h, both expressions over
// loop-invariant atoms, and repeated addition mod 2^64 agrees with the
// folded product mod 2^64. Substitution is gated on both expressions
// being integral and materializable in the preheader; the classifier's
// truncated-division algebra never classifies an IV quotient as Linear,
// so no truncation case can slip through.
//
// scr is the run's scratch table; nil allocates a private one. Returns
// the number of values substituted; SSA form stays valid.
func SubstituteIVsScratch(a *iv.Analysis, scr *Scratch) int {
	if scr == nil {
		scr = &Scratch{}
	}
	scr.begin()
	substituted := 0
	counter := 0
	for _, l := range a.Forest.InnerToOuter() {
		pre := l.Preheader()
		if pre == nil {
			continue
		}
		for _, m := range substCandidates(a, l) {
			if scr.marked(m.ID) {
				continue
			}
			if substituteOne(a, l, pre, m, &counter) {
				scr.mark(m.ID)
				substituted++
			}
		}
	}
	return substituted
}

// substCandidates finds the multiplicative values inside l — the ops
// whose replacement by an addition recurrence is a strength win — in
// deterministic order.
func substCandidates(a *iv.Analysis, l *loops.Loop) []*ir.Value {
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

// substituteOne replaces m with a φ recurrence when m itself classifies
// Linear in l with materializable init and step.
func substituteOne(a *iv.Analysis, l *loops.Loop, pre *ir.Block, m *ir.Value, counter *int) bool {
	cls := a.ClassOf(l, m)
	if cls.Kind != iv.Linear || cls.Init == nil || cls.Step == nil {
		return false
	}
	// A zero-step recurrence is an invariant in disguise; no win.
	if s, isConst := cls.Step.ConstVal(); isConst && s.IsZero() {
		return false
	}
	if !integralExpr(cls.Init) || !integralExpr(cls.Step) {
		return false
	}
	if !dominatesAll(a, cls.Init, pre) || !dominatesAll(a, cls.Step, pre) {
		return false
	}
	f := a.SSA.Func
	init := materialize(f, pre, cls.Init)
	step := materialize(f, pre, cls.Step)
	if init == nil || step == nil {
		return false
	}

	*counter++
	phi := insertRecurrence(f, l, init, step, fmt.Sprintf("ivs%d", *counter))
	replaceUses(f, m, phi)
	retireValue(m, phi)
	return true
}
