package iv

import (
	"slices"

	"beyondiv/internal/ir"
	"beyondiv/internal/matrix"
	"beyondiv/internal/rational"
)

// This file classifies nontrivial strongly connected regions of the SSA
// graph, in the order the paper presents them:
//
//	§4.2 periodic   — ≥2 header φs, only φs and copies;
//	§3.1 linear     — one header φ, add/sub by invariants, equal offsets
//	                  at every inner φ (Figure 3);
//	§4.3 nonlinear  — one header φ, single path: the cumulative effect
//	                  maps X to a·X + β, giving polynomial (a=1, β an IV),
//	                  geometric (|a|≥2), or flip-flop (a=-1, β invariant);
//	§4.4 monotonic  — one header φ, unequal but same-signed increments.

func (ctx *loopCtx) classifySCR(comp []int) {
	// Membership via a reusable stamp array: profiling shows per-SCC
	// map allocation dominates large loops otherwise.
	scr := ctx.scr
	scr.curStamp++
	for _, id := range comp {
		scr.sccStamp[id] = scr.curStamp
	}
	inSCC := func(id int) bool { return scr.sccStamp[id] == scr.curStamp }
	headers := scr.headers[:0]
	otherPhis := 0
	for _, id := range comp {
		n := ctx.nodes[id]
		if n.exit {
			continue
		}
		if n.v.Op == ir.OpPhi {
			if ctx.isHeaderPhi(id) {
				headers = append(headers, id)
			} else {
				otherPhis++
			}
		}
	}
	scr.headers = headers

	if len(headers) >= 2 && otherPhis == 0 && ctx.tryPeriodic(comp, inSCC, headers) {
		ctx.recordSCR(headers[0])
		return
	}
	if len(headers) == 1 {
		if ctx.tryLinearFamily(comp, inSCC, headers[0]) {
			ctx.recordSCR(headers[0])
			return
		}
		if otherPhis == 0 && ctx.tryCumulative(comp, inSCC, headers[0]) {
			ctx.recordSCR(headers[0])
			return
		}
		if ctx.tryMonotonic(comp, inSCC, headers[0]) {
			ctx.recordSCR(headers[0])
			return
		}
		if ctx.tryMonotonicGrowth(comp, inSCC, headers[0]) {
			ctx.recordSCR(headers[0])
			return
		}
	}
	for _, id := range comp {
		u := unknown()
		u.Rule = RuleUnclassified
		ctx.cls[id] = u
	}
	if len(headers) > 0 {
		ctx.recordSCR(headers[0])
	} else {
		ctx.a.rec.Count("iv.scr.unknown")
	}
}

// recordSCR emits the SCR-kind counter and the provenance decision for
// a just-classified component, keyed by its (first) header φ.
func (ctx *loopCtx) recordSCR(headID int) {
	rec := ctx.a.rec
	if rec == nil {
		return
	}
	c := ctx.cls[headID]
	if c == nil {
		return
	}
	var kind string
	switch c.Kind {
	case Linear:
		kind = "iv.scr.linear"
	case Periodic:
		if ruleOf(c) == RuleFlipFlop {
			kind = "iv.scr.flip_flop"
		} else {
			kind = "iv.scr.periodic"
		}
	case Polynomial:
		kind = "iv.scr.polynomial"
	case Geometric:
		kind = "iv.scr.geometric"
	case Monotonic:
		kind = "iv.scr.monotonic"
	case Invariant:
		kind = "iv.scr.invariant"
	default:
		kind = "iv.scr.unknown"
	}
	rec.Count(kind)
	rec.Decide(ctx.nodes[headID].v.String(), ruleOf(c).String(), c.String())
}

// headPhiArgs splits the single header φ's arguments; the initial value
// must come from outside the SCC (and outside the loop).
func (ctx *loopCtx) headPhiArgs(headID int) (init *ir.Value, carried []*ir.Value) {
	return splitPhiArgs(ctx.l, ctx.nodes[headID].v)
}

// ---- periodic (§4.2) ----

// tryPeriodic classifies a rotation ring: the SCC is a simple cycle of
// header φs and copies. Each φ delays the ring by one iteration.
func (ctx *loopCtx) tryPeriodic(comp []int, inSCC func(int) bool, headers []int) bool {
	period := len(headers)
	scr := ctx.scr
	// Verify shape: every node is a φ (header) or Copy with exactly one
	// in-SCC operand. next[id] is the unique in-SCC operand; every comp
	// id is assigned below before the walk reads it, so the reused
	// table needs no reset.
	next := scr.next
	for _, id := range comp {
		n := ctx.nodes[id]
		if n.exit {
			return false
		}
		inOp, inCount := 0, 0
		switch n.v.Op {
		case ir.OpPhi:
			if !ctx.isHeaderPhi(id) {
				return false
			}
			_, carried := splitPhiArgs(ctx.l, n.v)
			for _, c := range carried {
				if cid, ok := ctx.idxOf(c); ok && inSCC(cid) {
					inOp, inCount = cid, inCount+1
				}
			}
		case ir.OpCopy:
			if cid, ok := ctx.idxOf(n.v.Args[0]); ok && inSCC(cid) {
				inOp, inCount = cid, 1
			}
		default:
			return false
		}
		if inCount != 1 {
			return false
		}
		next[id] = inOp
	}

	// Walk the cycle assigning phases: a φ shifts phase by one. The
	// assigned counter replaces the old map-length check for "the walk
	// visited every component member exactly once".
	head := headers[0]
	phase := scr.phase
	for _, id := range comp {
		scr.phaseSet[id] = false
	}
	assigned := 0
	id, ph := head, 0
	for range comp {
		if !scr.phaseSet[id] {
			scr.phaseSet[id] = true
			assigned++
		}
		phase[id] = ((ph % period) + period) % period
		if ctx.isHeaderPhi(id) {
			ph = phase[id] - 1 // operand is one iteration "ahead"
		} else {
			ph = phase[id]
		}
		id = next[id]
	}
	if id != head || assigned != len(comp) {
		return false // not a single simple cycle
	}

	// Ring of initial values, indexed by phase of each header φ.
	initials := make([]*Expr, period)
	for _, h := range headers {
		initArg, _ := splitPhiArgs(ctx.l, ctx.nodes[h].v)
		if initArg == nil {
			return false
		}
		initials[phase[h]] = ctx.a.leafExpr(initArg)
	}

	headV := ctx.nodes[head].v
	for _, id := range comp {
		ctx.cls[id] = &Classification{
			Kind: Periodic, Loop: ctx.l,
			Period: period, Phase: phase[id],
			Initials: initials, HeadPhi: headV,
			Rule: RulePeriodicRing,
		}
	}
	return true
}

// ---- linear families (§3.1, Figure 3) ----

// tryLinearFamily computes each member's invariant offset from the
// header φ; inner φs must merge equal offsets. The family step is the
// offset of the loop-carried value.
func (ctx *loopCtx) tryLinearFamily(comp []int, inSCC func(int) bool, headID int) bool {
	// Dense side tables, reused across SCCs (allocating per-SCC would be
	// quadratic over thousands of small components): this is the hottest
	// classification path, and per-SCC maps showed up in the profile.
	offsets := ctx.scr.famOffsets
	state := ctx.scr.famState
	for _, id := range comp {
		offsets[id] = nil
		state[id] = 0 // 0 unseen, 1 visiting, 2 done
	}

	var offset func(id int) *Expr
	offset = func(id int) *Expr {
		switch state[id] {
		case 2:
			return offsets[id]
		case 1:
			return nil // cycle avoiding the header: malformed
		}
		state[id] = 1
		defer func() { state[id] = 2 }()
		if id == headID {
			offsets[id] = IntExpr(0)
			return offsets[id]
		}
		n := ctx.nodes[id]
		var e *Expr
		if n.exit {
			e = ctx.exitOffset(ctx.checkedExit(id), inSCC, offset)
		} else {
			e = ctx.valueOffset(n.v, inSCC, offset)
		}
		offsets[id] = e
		return e
	}

	for _, id := range comp {
		if offset(id) == nil {
			return false
		}
	}

	// The step is the carried value's offset; with several latches all
	// carried offsets must agree.
	initArg, carried := ctx.headPhiArgs(headID)
	if initArg == nil || len(carried) == 0 {
		return false
	}
	var step *Expr
	for _, c := range carried {
		cid, ok := ctx.idxOf(c)
		if !ok || !inSCC(cid) {
			return false
		}
		o := offsets[cid]
		if step == nil {
			step = o
		} else if !step.Equal(o) {
			return false
		}
	}
	if step == nil {
		return false
	}
	init := ctx.a.leafExpr(initArg)
	headV := ctx.nodes[headID].v
	for _, id := range comp {
		ctx.cls[id] = &Classification{
			Kind: Linear, Loop: ctx.l,
			Init: AddExpr(init, offsets[id]), Step: step,
			HeadPhi: headV,
			Rule:    RuleLinearFamily,
		}
	}
	return true
}

// valueOffset computes a value node's offset from the header φ, or nil
// when the node breaks the linear-family rules.
func (ctx *loopCtx) valueOffset(v *ir.Value, inSCC func(int) bool, offset func(int) *Expr) *Expr {
	inOp := func(arg *ir.Value) (int, bool) {
		id, ok := ctx.nodeOf(arg)
		if !ok || !inSCC(id) {
			return 0, false
		}
		return id, true
	}
	switch v.Op {
	case ir.OpPhi:
		// Inner φ: every argument in the SCC with equal offsets
		// (Figure 3: same increment on each path).
		var e *Expr
		for _, arg := range v.Args {
			id, ok := inOp(arg)
			if !ok {
				return nil
			}
			o := offset(id)
			if o == nil {
				return nil
			}
			if e == nil {
				e = o
			} else if !e.Equal(o) {
				return nil
			}
		}
		return e
	case ir.OpCopy:
		id, ok := inOp(v.Args[0])
		if !ok {
			return nil
		}
		return offset(id)
	case ir.OpAdd:
		a, aIn := inOp(v.Args[0])
		b, bIn := inOp(v.Args[1])
		switch {
		case aIn && !bIn:
			inc := ctx.operandExprInvariant(v.Args[1])
			return AddExpr(offset(a), inc)
		case bIn && !aIn:
			inc := ctx.operandExprInvariant(v.Args[0])
			return AddExpr(offset(b), inc)
		default:
			return nil
		}
	case ir.OpSub:
		// Only i = i - invariant is linear; n - i is a flip-flop
		// (handled by the cumulative path).
		a, aIn := inOp(v.Args[0])
		_, bIn := inOp(v.Args[1])
		if aIn && !bIn {
			dec := ctx.operandExprInvariant(v.Args[1])
			return SubExpr(offset(a), dec)
		}
		return nil
	default:
		return nil
	}
}

// exitOffset folds an exit-value node e = Σ cᵢ·tᵢ + c₀ into the offset
// discipline: exactly one in-SCC term with coefficient 1, all other
// terms invariant.
func (ctx *loopCtx) exitOffset(expr *Expr, inSCC func(int) bool, offset func(int) *Expr) *Expr {
	if expr == nil {
		return nil
	}
	var base *Expr
	rest := ConstExpr(expr.Const)
	for t, c := range expr.Terms {
		id, ok := ctx.nodeOf(t)
		if ok && inSCC(id) {
			if base != nil || !c.Equal(rational.FromInt(1)) {
				return nil
			}
			base = offset(id)
			if base == nil {
				return nil
			}
			continue
		}
		inv := ctx.operandExprInvariant(t)
		rest = AddExpr(rest, ScaleExpr(inv, c))
		if rest == nil {
			return nil
		}
	}
	if base == nil {
		return nil
	}
	return AddExpr(base, rest)
}

// ---- cumulative effect: polynomial / geometric / flip-flop (§4.3) ----

// symVal is the symbolic value a·X + β, where X is the header φ's value
// in the current iteration and β is a classified expression.
type symVal struct {
	a rational.Rat
	b *Classification
}

// tryCumulative requires a single path (no inner φs) and classifies the
// recurrence X' = a·X + β.
func (ctx *loopCtx) tryCumulative(comp []int, inSCC func(int) bool, headID int) bool {
	initArg, carried := ctx.headPhiArgs(headID)
	if initArg == nil || len(carried) != 1 {
		return false
	}
	carriedID, ok := ctx.nodeOf(carried[0])
	if !ok || !inSCC(carriedID) {
		return false
	}

	// Dense memo: symState 0 = unseen, 1 = visiting (cycle guard),
	// 2 = done — symVals[id] is meaningful (possibly nil) only at 2.
	scr := ctx.scr
	for _, id := range comp {
		scr.symState[id] = 0
	}
	var eval func(id int) *symVal
	eval = func(id int) *symVal {
		switch scr.symState[id] {
		case 2:
			return scr.symVals[id]
		case 1:
			return nil
		}
		scr.symState[id] = 1
		var sv *symVal
		if id == headID {
			sv = &symVal{a: rational.FromInt(1), b: invariant(ctx.l, IntExpr(0))}
		} else if ctx.nodes[id].exit {
			sv = ctx.symExit(ctx.checkedExit(id), inSCC, eval)
		} else {
			sv = ctx.symValue(ctx.nodes[id].v, inSCC, eval)
		}
		scr.symVals[id] = sv
		scr.symState[id] = 2
		return sv
	}

	for _, id := range comp {
		if eval(id) == nil {
			return false
		}
	}
	cv := scr.symVals[carriedID]
	a, beta := cv.a, cv.b
	if !a.Valid() || beta.Kind == Unknown {
		return false
	}
	ai, isInt := a.Int()
	if !isInt {
		return false
	}

	init := ctx.a.leafExpr(initArg)
	headV := ctx.nodes[headID].v

	var headCls *Classification
	switch {
	case ai == 1 && beta.Kind == Invariant:
		// Degenerate linear that the family path refused (e.g. an
		// increment that is invariant but only via algebra).
		step := beta.Expr
		if step == nil {
			return false
		}
		headCls = &Classification{Kind: Linear, Loop: ctx.l, Init: init, Step: step, HeadPhi: headV, Rule: RuleLinearCumulative}
	case ai == 1 && (beta.Kind == Linear || beta.Kind == Polynomial):
		ord := 2
		if beta.Kind == Polynomial {
			ord = beta.Order + 1
		}
		headCls = &Classification{Kind: Polynomial, Loop: ctx.l, Order: ord, HeadPhi: headV, Rule: RulePolynomial}
	case ai == 1 && beta.Kind == Geometric:
		headCls = &Classification{Kind: Geometric, Loop: ctx.l, Base: beta.Base, HeadPhi: headV, Rule: RuleGeometric}
	case ai == -1 && beta.Kind == Invariant:
		// Flip-flop: j = c - j (§4.2), periodic with period two.
		headCls = &Classification{Kind: Periodic, Loop: ctx.l, Period: 2, Phase: 0, HeadPhi: headV, Rule: RuleFlipFlop}
		if c := invariantExprOf(beta, nil); c != nil {
			headCls.Initials = []*Expr{init, SubExpr(c, init)}
		}
	case (ai <= -2 || ai >= 2) && (beta.Kind == Invariant || beta.Kind == Linear || beta.Kind == Polynomial):
		headCls = &Classification{Kind: Geometric, Loop: ctx.l, Base: ai, HeadPhi: headV, Rule: RuleGeometric}
	default:
		return false
	}
	headCls.Beta = beta

	// Closed forms by simulation + Vandermonde solve (§4.3), when the
	// initial value and β are numeric.
	haveSeries := ctx.simulate(init, a, beta, comp)
	for _, id := range comp {
		sv := scr.symVals[id]
		var cls *Classification
		if sv.a.IsZero() {
			cls = sv.b // does not depend on the recurrence at all
		} else if haveSeries {
			cls = ctx.solveClosedForm(headCls, scr.series[id])
		}
		if cls == nil {
			cls = ctx.classOnlyMember(headCls, sv)
		}
		// Provenance: annotate fresh member classifications only — the
		// sv.b branch shares a classification other values own.
		if cls != sv.b && cls.Kind != Unknown && cls.Rule == RuleNone {
			switch cls.Kind {
			case Linear, Invariant:
				cls.Rule = RuleLinearCumulative
			default:
				cls.Rule = headCls.Rule
			}
			cls.Beta = headCls.Beta
		}
		ctx.cls[id] = cls
	}
	return true
}

// symValue evaluates one operation over symVals.
func (ctx *loopCtx) symValue(v *ir.Value, inSCC func(int) bool, eval func(int) *symVal) *symVal {
	arg := func(w *ir.Value) *symVal {
		id, ok := ctx.nodeOf(w)
		if ok && inSCC(id) {
			return eval(id)
		}
		c := ctx.operandCls(w)
		if c.Kind == Unknown {
			return nil
		}
		if c.Kind == Invariant && c.Expr == nil {
			c = invariant(ctx.l, VarExpr(w))
		}
		return &symVal{a: rational.FromInt(0), b: c}
	}
	l := ctx.l
	switch v.Op {
	case ir.OpCopy:
		return arg(v.Args[0])
	case ir.OpNeg:
		x := arg(v.Args[0])
		if x == nil {
			return nil
		}
		return &symVal{a: x.a.Neg(), b: negCls(l, x.b)}
	case ir.OpAdd, ir.OpSub:
		x, y := arg(v.Args[0]), arg(v.Args[1])
		if x == nil || y == nil {
			return nil
		}
		if v.Op == ir.OpSub {
			y = &symVal{a: y.a.Neg(), b: negCls(l, y.b)}
		}
		b := addCls(l, x.b, y.b)
		if b.Kind == Unknown {
			return nil
		}
		return &symVal{a: x.a.Add(y.a), b: b}
	case ir.OpMul:
		x, y := arg(v.Args[0]), arg(v.Args[1])
		if x == nil || y == nil {
			return nil
		}
		// One side must be independent of X and constant.
		if x.a.IsZero() {
			x, y = y, x
		}
		if !y.a.IsZero() {
			return nil // X * X: not classified (paper §5.1)
		}
		k, ok := constOf(y.b)
		if !ok {
			return nil
		}
		b := scaleCls(l, x.b, k)
		if b.Kind == Unknown {
			return nil
		}
		return &symVal{a: x.a.Mul(k), b: b}
	default:
		return nil
	}
}

// symExit evaluates an exit-value node over symVals.
func (ctx *loopCtx) symExit(expr *Expr, inSCC func(int) bool, eval func(int) *symVal) *symVal {
	if expr == nil {
		return nil
	}
	a := rational.FromInt(0)
	b := invariant(ctx.l, ConstExpr(expr.Const))
	for t, c := range expr.Terms {
		id, ok := ctx.nodeOf(t)
		if ok && inSCC(id) {
			sv := eval(id)
			if sv == nil {
				return nil
			}
			a = a.Add(c.Mul(sv.a))
			b = addCls(ctx.l, b, scaleCls(ctx.l, sv.b, c))
		} else {
			cls := ctx.operandCls(t)
			if cls.Kind == Invariant && cls.Expr == nil {
				cls = invariant(ctx.l, VarExpr(t))
			}
			b = addCls(ctx.l, b, scaleCls(ctx.l, cls, c))
		}
		if b.Kind == Unknown || !a.Valid() {
			return nil
		}
	}
	return &symVal{a: a, b: b}
}

// simulate runs the recurrence numerically and records each member's
// value series into the scratch series table, reporting false when the
// pieces are not numeric. The series slices are only read before the
// next component is classified (the matrix solver copies what it
// keeps), so their backing arrays are reused freely.
func (ctx *loopCtx) simulate(init *Expr, a rational.Rat, beta *Classification, comp []int) bool {
	if ctx.a.opts.DisableClosedForms {
		return false
	}
	x0, ok := init.ConstVal()
	if !ok {
		return false
	}
	steps := ctx.seriesLength(a, beta)
	if steps == 0 {
		return false
	}
	scr := ctx.scr
	for _, id := range comp {
		scr.series[id] = scr.series[id][:0]
	}
	x := x0
	for h := int64(0); h < int64(steps); h++ {
		for _, id := range comp {
			sv := scr.symVals[id]
			bv, ok := betaEval(sv.b, h)
			if !ok {
				return false
			}
			mv := sv.a.Mul(x).Add(bv)
			if !mv.Valid() {
				return false
			}
			scr.series[id] = append(scr.series[id], mv)
		}
		bv, ok := betaEval(beta, h)
		if !ok {
			return false
		}
		x = a.Mul(x).Add(bv)
		if !x.Valid() {
			return false
		}
	}
	return true
}

// betaEval evaluates a numeric classification at iteration h.
func betaEval(c *Classification, h int64) (rational.Rat, bool) {
	if c.Kind == Invariant {
		return c.Expr.ConstVal()
	}
	return c.PolyEval(h)
}

// seriesLength returns the number of sample points needed to determine
// the closed form (#unknown coefficients), or 0 when no numeric closed
// form applies.
func (ctx *loopCtx) seriesLength(a rational.Rat, beta *Classification) int {
	ai, _ := a.Int()
	betaDeg := -1
	switch beta.Kind {
	case Invariant:
		if _, ok := beta.Expr.ConstVal(); ok {
			betaDeg = 0
		}
	case Linear:
		if _, _, ok := beta.LinearConst(); ok {
			betaDeg = 1
		}
	case Polynomial:
		if beta.Coeffs != nil {
			betaDeg = beta.Order
		}
	case Geometric:
		if beta.Coeffs != nil && ai == 1 && beta.Base != 1 {
			// x' = x + poly + g·b^h: poly degree rises by one, plus one
			// geometric coefficient.
			return (len(beta.Coeffs) - 1 + 1) + 1 + 1 + 1
		}
		return 0
	default:
		return 0
	}
	if betaDeg < 0 {
		return 0
	}
	if ai == 1 {
		// Pure polynomial of degree betaDeg+1.
		return betaDeg + 2
	}
	// Geometric: particular polynomial of degree betaDeg plus the
	// homogeneous a^h term.
	return betaDeg + 2
}

// solveClosedForm fits a member's sampled series to the head's class
// shape (polynomial or geometric) and cross-checks the fit on the last
// sample.
func (ctx *loopCtx) solveClosedForm(head *Classification, series []rational.Rat) *Classification {
	if len(series) == 0 {
		return nil
	}
	n := len(series)
	var build func() *matrix.Matrix
	geoBase := int64(0)
	switch head.Kind {
	case Polynomial, Linear:
		build = func() *matrix.Matrix { return matrix.Vandermonde(n - 1) }
	case Geometric:
		geoBase = head.Base
		build = func() *matrix.Matrix { return matrix.GeometricVandermonde(n, geoBase) }
	case Periodic: // flip-flop: base -1 closed form
		geoBase = -1
		build = func() *matrix.Matrix { return matrix.GeometricVandermonde(n, -1) }
	default:
		return nil
	}
	ctx.a.rec.Count("iv.matrix.solves")
	inv := ctx.scr.inverseOf(invKey{n: n, base: geoBase, geo: geoBase != 0}, build)
	if inv == nil {
		return nil
	}
	coeffs, err := inv.MulVec(series)
	if err != nil {
		return nil
	}
	out := &Classification{Loop: ctx.l, Kind: head.Kind, HeadPhi: head.HeadPhi}
	switch head.Kind {
	case Polynomial, Linear:
		c := canonPoly(ctx.l, coeffs)
		c.HeadPhi = head.HeadPhi
		if c.Kind == Polynomial || head.Kind != Polynomial {
			return c
		}
		// Member of a polynomial family that degenerates to linear or
		// invariant: keep the simpler class.
		return c
	case Geometric, Periodic:
		out.Base = geoBase
		out.GeoCoeff = coeffs[n-1]
		out.Coeffs = trimPoly(coeffs[:n-1])
		if out.GeoCoeff.IsZero() {
			c := canonPoly(ctx.l, coeffs[:n-1])
			c.HeadPhi = head.HeadPhi
			return c
		}
		if head.Kind == Periodic {
			out.Kind = Periodic
			out.Period = 2
			out.Phase = 0
			// The member's own two-value ring, from its closed form.
			v0, ok0 := out.PolyEval(0)
			v1, ok1 := out.PolyEval(1)
			if ok0 && ok1 {
				out.Initials = []*Expr{ConstExpr(v0), ConstExpr(v1)}
			}
		}
		return out
	}
	return nil
}

func trimPoly(c []rational.Rat) []rational.Rat {
	n := len(c)
	for n > 0 && c[n-1].IsZero() {
		n--
	}
	out := make([]rational.Rat, n)
	copy(out, c[:n])
	return out
}

// classOnlyMember labels a member when coefficients cannot be computed:
// the kind and order are still known.
func (ctx *loopCtx) classOnlyMember(head *Classification, sv *symVal) *Classification {
	out := &Classification{Loop: ctx.l, Kind: head.Kind, HeadPhi: head.HeadPhi}
	switch head.Kind {
	case Linear:
		// a·(init + h·step) + b: linear again when b is invariant.
		if b, ok := sv.b.Expr, sv.b.Kind == Invariant; ok && head.Init != nil && head.Step != nil {
			init := AddExpr(ScaleExpr(head.Init, sv.a), b)
			step := ScaleExpr(head.Step, sv.a)
			if init != nil && step != nil {
				return &Classification{Kind: Linear, Loop: ctx.l, Init: init, Step: step, HeadPhi: head.HeadPhi}
			}
		}
		return unknown()
	case Polynomial:
		out.Order = head.Order
	case Geometric:
		out.Base = head.Base
	case Periodic:
		out.Period = head.Period
		out.Phase = 0
		// Member ring m(h) = a·head(h) + b from the head's ring.
		if b, isInv := sv.b.Expr, sv.b.Kind == Invariant; isInv && b != nil && len(head.Initials) == head.Period {
			ring := make([]*Expr, 0, head.Period)
			complete := true
			for off := 0; off < head.Period; off++ {
				idx := ((head.Phase-off)%head.Period + head.Period) % head.Period
				hv := head.Initials[idx]
				mv := AddExpr(ScaleExpr(hv, sv.a), b)
				if mv == nil {
					complete = false
					break
				}
				ring = append(ring, mv)
			}
			if complete {
				// ring[off] is the member's value at iteration off;
				// store as Initials with phase 0: Initials[(0-h) mod p].
				out.Initials = make([]*Expr, head.Period)
				for off, mv := range ring {
					out.Initials[((0-off)%head.Period+head.Period)%head.Period] = mv
				}
			}
		}
	}
	return out
}

// ---- monotonic (§4.4) ----

// bound is a rational with explicit infinities.
type bound struct {
	val rational.Rat
	inf bool // true: unbounded in this direction
}

type valRange struct{ lo, hi bound }

func addBound(a, b bound) bound {
	if a.inf || b.inf {
		return bound{inf: true}
	}
	v := a.val.Add(b.val)
	if !v.Valid() {
		return bound{inf: true}
	}
	return bound{val: v}
}

func minBound(a, b bound) bound {
	if a.inf || b.inf {
		return bound{inf: true}
	}
	if a.val.Cmp(b.val) <= 0 {
		return a
	}
	return b
}

func maxBound(a, b bound) bound {
	if a.inf || b.inf {
		return bound{inf: true}
	}
	if a.val.Cmp(b.val) >= 0 {
		return a
	}
	return b
}

// clsRange bounds a classification's value over all iterations.
func clsRange(c *Classification) valRange {
	lo, hi, hasLo, hasHi := boundsOf(c)
	r := valRange{lo: bound{inf: true}, hi: bound{inf: true}}
	if hasLo {
		r.lo = bound{val: lo}
	}
	if hasHi {
		r.hi = bound{val: hi}
	}
	return r
}

func scaleRange(r valRange, c rational.Rat) valRange {
	s := func(b bound) bound {
		if b.inf {
			return b
		}
		v := b.val.Mul(c)
		if !v.Valid() {
			return bound{inf: true}
		}
		return bound{val: v}
	}
	lo, hi := s(r.lo), s(r.hi)
	if c.Sign() < 0 {
		lo, hi = hi, lo
	}
	return valRange{lo: lo, hi: hi}
}

func addRange(a, b valRange) valRange {
	return valRange{lo: addBound(a.lo, b.lo), hi: addBound(a.hi, b.hi)}
}

// tryMonotonic computes per-member offset ranges from the header φ.
// Sound when every individual increment has a consistent sign; see the
// derivation in the tests.
func (ctx *loopCtx) tryMonotonic(comp []int, inSCC func(int) bool, headID int) bool {
	initArg, carried := ctx.headPhiArgs(headID)
	if initArg == nil || len(carried) == 0 {
		return false
	}

	// Dense memo: rngState 0 = unseen, 1 = visiting, 2 = done —
	// ranges[id] is meaningful (possibly nil) only at 2.
	scr := ctx.scr
	for _, id := range comp {
		scr.rngState[id] = 0
	}
	allNonNeg, allNonPos := true, true

	recordInc := func(r valRange) {
		if r.lo.inf || r.lo.val.Sign() < 0 {
			allNonNeg = false
		}
		if r.hi.inf || r.hi.val.Sign() > 0 {
			allNonPos = false
		}
	}

	inOp := func(w *ir.Value) (int, bool) {
		id, ok := ctx.nodeOf(w)
		if !ok || !inSCC(id) {
			return 0, false
		}
		return id, true
	}

	var rng func(id int) *valRange
	rng = func(id int) *valRange {
		switch scr.rngState[id] {
		case 2:
			return scr.ranges[id]
		case 1:
			return nil
		}
		scr.rngState[id] = 1
		var out *valRange
		if id == headID {
			out = &valRange{lo: bound{val: rational.FromInt(0)}, hi: bound{val: rational.FromInt(0)}}
		} else {
			n := ctx.nodes[id]
			if n.exit {
				out = ctx.exitRange(ctx.checkedExit(id), inSCC, rng, recordInc)
			} else {
				out = ctx.valueRange(n.v, inOp, rng, recordInc)
			}
		}
		scr.ranges[id] = out
		scr.rngState[id] = 2
		return out
	}

	for _, id := range comp {
		if rng(id) == nil {
			return false
		}
	}

	// Step range: union over carried values.
	step := valRange{lo: bound{inf: true}, hi: bound{inf: true}}
	first := true
	for _, c := range carried {
		cid, ok := inOp(c)
		if !ok {
			return false
		}
		r := scr.ranges[cid]
		if first {
			step = *r
			first = false
		} else {
			step = valRange{lo: minBound(step.lo, r.lo), hi: maxBound(step.hi, r.hi)}
		}
	}

	var dir int
	switch {
	case allNonNeg && !step.lo.inf && step.lo.val.Sign() >= 0:
		dir = 1
	case allNonPos && !step.hi.inf && step.hi.val.Sign() <= 0:
		dir = -1
	default:
		return false
	}
	stepStrict := (dir > 0 && !step.lo.inf && step.lo.val.Sign() > 0) ||
		(dir < 0 && !step.hi.inf && step.hi.val.Sign() < 0)

	headV := ctx.nodes[headID].v
	cands := scr.cands[:0]
	for _, id := range comp {
		r := scr.ranges[id]
		if !stepStrict && (dir > 0 && !r.lo.inf && r.lo.val.Sign() > 0 || dir < 0 && !r.hi.inf && r.hi.val.Sign() < 0) {
			cands = append(cands, id)
		}
		ctx.cls[id] = &Classification{Kind: Monotonic, Loop: ctx.l, Dir: dir, Strict: stepStrict, HeadPhi: headV, Rule: RuleMonotonicRange}
	}
	scr.cands = cands
	if len(cands) > 0 {
		ctx.markCarried(comp, inSCC, cands)
	}
	return true
}

// markCarried marks strict each of cands, the members whose own offset
// from the head is nonzero in the SCR's direction and whose value
// reaches the next head whenever it is computed, as Fig. 10's k3 does
// by being computed inside the branch it feeds. Member x's does not
// when a path from x's block within the iteration reaches the
// predecessor edge of an SCR φ operand not computed from x: that path
// carries the head onward past x, so x can repeat. Members go 64 at a
// time as bits, through one walk of the SCR and one pass over the
// blocks the SCR spans, so the work is not the loop's size per SCR.
func (ctx *loopCtx) markCarried(comp []int, inSCC func(int) bool, cands []int) {
	s := ctx.scr
	if n := ctx.a.SSA.Func.NumBlocks(); len(s.reached) < n {
		s.reached = make([]uint64, n)
	}
	if len(s.from) < len(ctx.nodes) {
		s.from = make([]uint64, len(ctx.nodes))
	}
	rpo := ctx.a.SSA.Dom.RPOIndex
	if ctx.order == nil {
		ctx.order = append(s.blocks[:0], ctx.l.Blocks...)
		slices.SortFunc(ctx.order, func(a, b *ir.Block) int { return rpo(a) - rpo(b) })
		s.blocks = ctx.order
	}
	for ; len(cands) > 64; cands = cands[64:] {
		ctx.markCarried64(comp, inSCC, cands[:64], rpo)
	}
	ctx.markCarried64(comp, inSCC, cands, rpo)
}

// markCarried64 is markCarried over at most 64 members.
func (ctx *loopCtx) markCarried64(comp []int, inSCC func(int) bool, cands []int, rpo func(*ir.Block) int) {
	s, l := ctx.scr, ctx.l
	latch := func(pred *ir.Block) bool { return len(l.Latches) == 1 && pred == l.Latches[0] }
	phiEdges := func(visit func(pred *ir.Block, arg *ir.Value)) {
		for _, id := range comp {
			if p := ctx.nodes[id]; !p.exit && p.v.Op == ir.OpPhi {
				for i, arg := range p.v.Args {
					// Only the head φ has an operand from outside the loop.
					if pred := p.v.Block.Preds[i]; p.v.Block != l.Header || l.Contains(pred) {
						visit(pred, arg)
					}
				}
			}
		}
	}
	for _, id := range comp {
		s.from[id], s.rngState[id] = 0, 0
	}
	// A member's walk starts at its block or, for an inner loop's exit
	// value, at that inner loop's header: every block of the inner loop
	// reaches the same blocks outside it.
	start := func(x int) *ir.Block {
		in := ctx.a.Forest.InnermostContaining(ctx.nodes[x].v.Block)
		if in == l {
			return ctx.nodes[x].v.Block
		}
		for in.Parent != l {
			in = in.Parent
		}
		return in.Header
	}
	lo, hi := rpo(start(cands[0])), -1
	for i, x := range cands {
		lo = min(lo, rpo(start(x)))
		s.from[x] |= 1 << i
	}
	phiEdges(func(pred *ir.Block, _ *ir.Value) {
		if !latch(pred) {
			hi = max(hi, rpo(pred))
		}
	})
	first, _ := slices.BinarySearchFunc(ctx.order, lo, func(b *ir.Block, i int) int { return rpo(b) - i })
	last, _ := slices.BinarySearchFunc(ctx.order, hi+1, func(b *ir.Block, i int) int { return rpo(b) - i })
	span := ctx.order[min(first, last):last]
	for _, b := range span {
		s.reached[b.ID] = 0
	}
	for i, x := range cands {
		if b := start(x); rpo(b) <= hi {
			s.reached[b.ID] |= 1 << i
		}
	}
	for _, b := range span {
		for _, next := range b.Succs {
			if next != l.Header { // blocks past the span may take bits: none are read
				s.reached[next.ID] |= s.reached[b.ID]
			}
		}
	}
	var lost uint64
	phiEdges(func(pred *ir.Block, arg *ir.Value) {
		var reach uint64
		switch {
		case latch(pred):
			reach = ^uint64(0) >> (64 - len(cands))
		case rpo(pred) >= lo:
			reach = s.reached[pred.ID]
		}
		if w, ok := ctx.nodeOf(arg); ok && inSCC(w) {
			reach &^= ctx.computedFrom(w, inSCC)
		}
		lost |= reach
	})
	for i, x := range cands {
		ctx.cls[x].Strict = lost&(1<<i) == 0
	}
}

// computedFrom returns, as bits, the members markCarried checks that
// SCR node w is computed from within an iteration: over w's in-SCR
// operands, not past the header φ. Memoized in scr.from, with
// scr.rngState (free once the ranges are computed) marking it done.
func (ctx *loopCtx) computedFrom(w int, inSCC func(int) bool) uint64 {
	s := ctx.scr
	if s.rngState[w] == 0 {
		s.rngState[w] = 2
		if !ctx.isHeaderPhi(w) {
			for _, u := range ctx.nodes[w].succ {
				if inSCC(u) {
					s.from[w] |= ctx.computedFrom(u, inSCC)
				}
			}
		}
	}
	return s.from[w]
}

// valueRange computes a node's offset range.
func (ctx *loopCtx) valueRange(v *ir.Value, inOp func(*ir.Value) (int, bool), rng func(int) *valRange, recordInc func(valRange)) *valRange {
	switch v.Op {
	case ir.OpPhi:
		// Union over all arguments (all must be in the SCC).
		var out *valRange
		for _, arg := range v.Args {
			id, ok := inOp(arg)
			if !ok {
				return nil
			}
			r := rng(id)
			if r == nil {
				return nil
			}
			if out == nil {
				cp := *r
				out = &cp
			} else {
				out = &valRange{lo: minBound(out.lo, r.lo), hi: maxBound(out.hi, r.hi)}
			}
		}
		return out
	case ir.OpCopy:
		id, ok := inOp(v.Args[0])
		if !ok {
			return nil
		}
		return rng(id)
	case ir.OpAdd, ir.OpSub:
		aID, aIn := inOp(v.Args[0])
		bID, bIn := inOp(v.Args[1])
		if aIn && bIn || (!aIn && !bIn) {
			return nil
		}
		if v.Op == ir.OpSub && bIn {
			return nil // c - x flips direction
		}
		var baseID int
		var incVal *ir.Value
		if aIn {
			baseID, incVal = aID, v.Args[1]
		} else {
			baseID, incVal = bID, v.Args[0]
		}
		base := rng(baseID)
		if base == nil {
			return nil
		}
		inc := clsRange(ctx.operandCls(incVal))
		if v.Op == ir.OpSub {
			inc = scaleRange(inc, rational.FromInt(-1))
		}
		recordInc(inc)
		out := addRange(*base, inc)
		return &out
	default:
		return nil
	}
}

// exitRange folds an exit node: one in-SCC coefficient-1 term plus
// bounded invariant contributions.
func (ctx *loopCtx) exitRange(expr *Expr, inSCC func(int) bool, rng func(int) *valRange, recordInc func(valRange)) *valRange {
	if expr == nil {
		return nil
	}
	var base *valRange
	inc := valRange{lo: bound{val: expr.Const}, hi: bound{val: expr.Const}}
	for t, c := range expr.Terms {
		id, ok := ctx.nodeOf(t)
		if ok && inSCC(id) {
			if base != nil || !c.Equal(rational.FromInt(1)) {
				return nil
			}
			base = rng(id)
			if base == nil {
				return nil
			}
			continue
		}
		inc = addRange(inc, scaleRange(clsRange(ctx.operandCls(t)), c))
	}
	if base == nil {
		return nil
	}
	recordInc(inc)
	out := addRange(*base, inc)
	return &out
}

// ---- monotonic growth with multiplications (§4.4's extension) ----

// growth is tryMonotonicGrowth's per-node verdict, memoized in the
// scratch growths table.
type growth struct {
	ok       bool
	strict   bool // strictly greater than the header value each pass
	innerPhi bool // reached through a non-header φ
}

// tryMonotonicGrowth handles SCRs that mix additions and
// multiplications ("Multiply operations can also be allowed, such as
// 2*i+i, as long as the initial value of i is known"). With a constant
// nonnegative start, every addition of a provably nonnegative value and
// every multiplication by a constant ≥ 1 keeps the sequence
// nondecreasing; values are ≥ the header value inductively, so the
// carried value never shrinks.
//
// Member classification is restricted to nodes whose operand chain back
// to the header φ passes through no inner φ: such a node is a fixed
// strictly-monotone composition g of the header value, so it inherits
// the header's monotonicity. Nodes behind merges of different
// multiplicative paths are NOT monotonic in general (branches x and 3x
// can interleave non-monotonically) and stay unknown.
func (ctx *loopCtx) tryMonotonicGrowth(comp []int, inSCC func(int) bool, headID int) bool {
	initArg, carried := ctx.headPhiArgs(headID)
	if initArg == nil || len(carried) == 0 {
		return false
	}
	init, ok := ctx.a.leafExpr(initArg).ConstVal()
	if !ok || init.Sign() < 0 {
		return false
	}
	one := rational.FromInt(1)
	initGE1 := init.Cmp(one) >= 0

	// Dense memo: grState 0 = unseen, 1 = visiting, 2 = done —
	// growths[id] is the node's memoized verdict only at 2.
	scr := ctx.scr
	for _, id := range comp {
		scr.grState[id] = 0
	}

	inOp := func(w *ir.Value) (int, bool) {
		id, found := ctx.nodeOf(w)
		if !found || !inSCC(id) {
			return 0, false
		}
		return id, true
	}
	// nonnegLB / lowerBound of an out-of-SCC operand.
	outLB := func(w *ir.Value) (rational.Rat, bool) {
		lo, _, hasLo, _ := boundsOf(ctx.operandCls(w))
		return lo, hasLo
	}

	var eval func(id int) *growth
	eval = func(id int) *growth {
		switch scr.grState[id] {
		case 2:
			return &scr.growths[id]
		case 1:
			return &growth{} // malformed cycle
		}
		scr.grState[id] = 1
		scr.growths[id] = growth{}
		g := &scr.growths[id]
		defer func() { scr.grState[id] = 2 }()
		if id == headID {
			g.ok = true
			return g
		}
		n := ctx.nodes[id]
		if n.exit {
			return g
		}
		switch n.v.Op {
		case ir.OpPhi:
			if ctx.isHeaderPhi(id) {
				return g // second header φ: not this shape
			}
			g.ok, g.strict, g.innerPhi = true, true, true
			for _, arg := range n.v.Args {
				aid, in := inOp(arg)
				if !in {
					g.ok = false
					return g
				}
				ag := eval(aid)
				if !ag.ok {
					g.ok = false
					return g
				}
				g.strict = g.strict && ag.strict
			}
			return g
		case ir.OpCopy:
			aid, in := inOp(n.v.Args[0])
			if !in {
				return g
			}
			*g = *eval(aid)
			return g
		case ir.OpAdd, ir.OpSub:
			aID, aIn := inOp(n.v.Args[0])
			bID, bIn := inOp(n.v.Args[1])
			if n.v.Op == ir.OpSub && bIn {
				return g // c - x reverses direction
			}
			switch {
			case aIn && bIn: // x + y, both ≥ head ≥ 0
				ga, gb := eval(aID), eval(bID)
				if !ga.ok || !gb.ok {
					return g
				}
				g.ok = true
				g.strict = ga.strict || gb.strict || initGE1
				g.innerPhi = ga.innerPhi || gb.innerPhi
				return g
			case aIn || bIn:
				var base *growth
				var other *ir.Value
				if aIn {
					base, other = eval(aID), n.v.Args[1]
				} else {
					base, other = eval(bID), n.v.Args[0]
				}
				if !base.ok {
					return g
				}
				lb, hasLB := outLB(other)
				if n.v.Op == ir.OpSub {
					// x - c with c ≤ 0 is an addition of -c ≥ 0.
					_, hi, _, hasHi := boundsOf(ctx.operandCls(other))
					if !hasHi || hi.Sign() > 0 {
						return g
					}
					lb, hasLB = hi.Neg(), true
				}
				if !hasLB || lb.Sign() < 0 {
					return g
				}
				g.ok = true
				g.strict = base.strict || lb.Cmp(one) >= 0
				g.innerPhi = base.innerPhi
				return g
			default:
				return g
			}
		case ir.OpMul:
			aID, aIn := inOp(n.v.Args[0])
			bID, bIn := inOp(n.v.Args[1])
			switch {
			case aIn && bIn: // x·y, both ≥ head: needs head ≥ 1
				ga, gb := eval(aID), eval(bID)
				if !ga.ok || !gb.ok || !initGE1 {
					return g
				}
				g.ok = true
				g.strict = init.Cmp(rational.FromInt(2)) >= 0
				g.innerPhi = ga.innerPhi || gb.innerPhi
				return g
			case aIn || bIn:
				var base *growth
				var other *ir.Value
				if aIn {
					base, other = eval(aID), n.v.Args[1]
				} else {
					base, other = eval(bID), n.v.Args[0]
				}
				if !base.ok {
					return g
				}
				c, isConst := constOf(ctx.operandCls(other))
				if !isConst || c.Cmp(one) < 0 {
					return g
				}
				g.ok = true
				g.strict = base.strict || (c.Cmp(rational.FromInt(2)) >= 0 && initGE1)
				g.innerPhi = base.innerPhi
				return g
			default:
				return g
			}
		default:
			return g
		}
	}

	// All carried values must grow; family strictness needs every one.
	strictAll := true
	for _, c := range carried {
		cid, in := inOp(c)
		if !in {
			return false
		}
		cg := eval(cid)
		if !cg.ok {
			return false
		}
		strictAll = strictAll && cg.strict
	}

	headV := ctx.nodes[headID].v
	for _, id := range comp {
		if id == headID {
			ctx.cls[id] = &Classification{Kind: Monotonic, Loop: ctx.l, Dir: 1, Strict: strictAll, HeadPhi: headV, Rule: RuleMonotonicGrowth}
			continue
		}
		g := eval(id)
		if g.ok && !g.innerPhi {
			// A fixed strictly-monotone composition of the header.
			ctx.cls[id] = &Classification{Kind: Monotonic, Loop: ctx.l, Dir: 1, Strict: strictAll, HeadPhi: headV, Rule: RuleMonotonicGrowth}
		} else {
			ctx.cls[id] = unknown()
		}
	}
	return true
}
