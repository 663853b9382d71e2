package depend

import (
	"fmt"
	"slices"

	"beyondiv/internal/dom"
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/rational"
	"beyondiv/internal/safemath"
)

// tester holds per-analysis state for pair testing.
//
// All the equation arithmetic below is overflow-checked, and every
// overflow degrades in the conservative direction for a dependence
// tester: "assume dependence" (or "drop the distance/exactness
// refinement"), never "proven independent". An unchecked wraparound
// here would not crash — it would silently flip a verdict, which is
// the worst failure mode an analysis that licenses loop transformations
// can have.
type tester struct {
	a    *iv.Analysis
	opts Options
	// rec and budget are the run's recorder and step budget.
	rec    *obs.Recorder
	budget *guard.Budget
	// pdom is the postdominator tree, built on first use (§5.4).
	pdom *dom.Tree
	// scr holds the reusable equation-building tables for this run.
	scr *dependScratch
	// prev is the verdict table of the Result this run replaces (nil
	// on a first analysis). Every worker reads it; nothing writes it.
	prev map[string]*verdict
	// verdicts collects this run's verdicts, made on first use. A
	// parallel sweep's workers collect their own, merged into the
	// coordinator's after the join; the Result keeps the coordinator's.
	verdicts map[string]*verdict
}

// postDom lazily builds the postdominator tree.
func (t *tester) postDom() *dom.Tree {
	if t.pdom == nil {
		t.pdom = dom.NewPost(t.a.SSA.Func)
	}
	return t.pdom
}

// strictAtSite implements §5.4's refinement: a non-strict monotonic
// subscript is strictly monotonic *at a particular use site* when the
// site is post-dominated by a strictly monotonic assignment of the same
// family — between two executions of the site, the increment must have
// executed ("any uses of k2 in this region are post-dominated by the
// strictly monotonic assignment").
func (t *tester) strictAtSite(ac *Access, cls *iv.Classification) bool {
	if cls.Strict {
		return true
	}
	if cls.HeadPhi == nil || ac.Loop == nil {
		return false
	}
	pd := t.postDom()
	for v, c := range t.a.LoopClassifications(ac.Loop) {
		if c.Kind == iv.Monotonic && c.Strict && c.HeadPhi == cls.HeadPhi {
			if pd.Dominates(v.Block, ac.Value.Block) {
				return true
			}
		}
	}
	return false
}

// testPair decides dependence between two accesses to the same array.
// It returns the dependences found (possibly empty) and whether the
// pair was proven independent.
func (t *tester) testPair(A, B *Access) ([]*Dependence, bool) {
	t.budget.Step()
	// An access inside a loop proven to run zero times never executes.
	for _, ac := range []*Access{A, B} {
		for l := ac.Loop; l != nil; l = l.Parent {
			tc := t.a.TripCount(l)
			if c, ok := tc.Const(); ok && c == 0 {
				return t.record(A, B, "zero-trip", nil, true)
			}
			if tc != nil && tc.HasMax && tc.MaxConst == 0 {
				return t.record(A, B, "zero-trip", nil, true)
			}
		}
	}

	// Subscript classifications, wrap-around subscripts already shifted
	// onto their induction sequence with the §6 after-k-iterations flag;
	// derived once per access and reused across every pair it joins.
	t.subscriptClass(A)
	t.subscriptClass(B)
	clsA, clsB := A.unwrapped, B.unwrapped
	after := A.after
	if B.after > after {
		after = B.after
	}

	// Periodic subscripts with known rings (§6, L22; also flip-flop
	// pairs like the paper's L12).
	if clsA != nil && clsB != nil && clsA.Kind == iv.Periodic && clsB.Kind == iv.Periodic &&
		A.Loop == B.Loop && A.Loop != nil {
		if deps, done := t.testPeriodic(A, B, clsA, clsB); done {
			return t.record(A, B, "periodic", deps, len(deps) == 0)
		}
	}

	// Monotonic family subscripts (§6, Figure 10).
	if clsA != nil && clsB != nil && clsA.Kind == iv.Monotonic && clsB.Kind == iv.Monotonic &&
		clsA.HeadPhi != nil && clsA.HeadPhi == clsB.HeadPhi && A.Loop == B.Loop {
		if deps, done := t.testMonotonic(A, B, clsA, clsB); done {
			return t.record(A, B, "monotonic", deps, len(deps) == 0)
		}
	}

	// Polynomial/geometric closed forms in one loop: exact evaluation
	// over the bounded space (§6's nod to [Ban76]). The affine machinery
	// cannot express these, so try before falling back.
	if A.Loop != nil && A.Loop == B.Loop &&
		hasClosedForm(clsA) && hasClosedForm(clsB) &&
		(isPolyGeo(clsA) || isPolyGeo(clsB)) {
		if deps, done := t.testPolynomial(A, B, clsA, clsB); done {
			for _, d := range deps {
				d.AfterIterations = after
			}
			return t.record(A, B, "polynomial-exact", deps, len(deps) == 0)
		}
	}

	// Affine path: dependence equation over iteration counters.
	formA := t.formOf(A, clsA)
	formB := t.formOf(B, clsB)
	if formA == nil || formB == nil {
		// No usable form: assume dependence in every direction.
		return t.record(A, B, "assumed", t.assumed(A, B), false)
	}
	deps, independent := t.testAffine(A, B, formA, formB, after)
	return t.record(A, B, "affine", deps, independent)
}

// record emits per-pair telemetry — the test counter keyed by decision
// procedure and outcome, and one provenance event per edge (or per
// refuted pair) — and passes the result through unchanged.
func (t *tester) record(A, B *Access, method string, deps []*Dependence, independent bool) ([]*Dependence, bool) {
	rec := t.rec
	if rec == nil {
		return deps, independent
	}
	rec.Count("depend.pairs.tested")
	if len(deps) > 0 {
		method = deps[0].Method
	}
	outcome := ".dependent"
	if independent {
		outcome = ".independent"
	}
	rec.Count("depend.test." + method + outcome)
	if len(deps) == 0 {
		verdict := "assumed dependent (no usable form)"
		if independent {
			verdict = "proven independent"
		}
		rec.Decide(A.String()+" vs "+B.String(), method, verdict)
	}
	for _, d := range deps {
		rec.Decide(d.Src.String()+" -> "+d.Dst.String(), d.Method, d.String())
	}
	return deps, independent
}

// subscriptClass classifies an access's subscript within its loop,
// memoizing both the raw class and its unwrapped refinement on the
// access so the pairwise loop derives each access's facts exactly once.
func (t *tester) subscriptClass(ac *Access) *iv.Classification {
	if !ac.clsDone {
		ac.clsDone = true
		if ac.Loop != nil {
			ac.cls = t.a.ClassOf(ac.Loop, ac.Value.Args[0])
		}
		ac.unwrapped, ac.after = unwrap(ac.cls, 0)
	}
	return ac.cls
}

// unwrap peels wrap-around subscripts onto their post-warm-up class.
func unwrap(c *iv.Classification, after int) (*iv.Classification, int) {
	for c != nil && c.Kind == iv.WrapAround && c.Inner != nil {
		shifted := shiftClass(c.Inner, c.Order, c.Loop)
		if shifted == nil {
			return c, after
		}
		if c.Order > after {
			after = c.Order
		}
		c = shifted
	}
	return c, after
}

// shiftClass rewrites Inner so that evaluating it at iteration h yields
// Inner(h - order): for a linear class, subtract order·step from the
// initial value.
func shiftClass(inner *iv.Classification, order int, l *loops.Loop) *iv.Classification {
	if inner.Kind != iv.Linear || inner.Init == nil || inner.Step == nil {
		return nil
	}
	init := iv.SubExpr(inner.Init, iv.ScaleExpr(inner.Step, rational.FromInt(int64(order))))
	if init == nil {
		return nil
	}
	return &iv.Classification{Kind: iv.Linear, Loop: l, Init: init, Step: inner.Step, HeadPhi: inner.HeadPhi}
}

// formOf builds the iteration form of an access's subscript, through
// the possibly unwrapped classification. The form is memoized on the
// access: cls is always the access's own unwrapped classification, so
// the result is a per-access fact independent of the pairing.
func (t *tester) formOf(ac *Access, cls *iv.Classification) *iv.IterForm {
	if !ac.formDone {
		ac.formDone = true
		switch {
		case ac.Loop == nil:
			// Outside loops: expand the raw subscript value.
			ac.form = t.a.IterFormOf(nil, ac.Value.Args[0])
		case cls != nil:
			ac.form = t.a.IterFormOfClass(ac.Loop, cls)
		}
	}
	return ac.form
}

// assumed emits the conservative catch-all dependences for an untestable
// pair.
func (t *tester) assumed(A, B *Access) []*Dependence {
	common := commonLoops(A, B)
	dirs := make([]Dir, len(common))
	for i := range dirs {
		dirs[i] = DirAll
	}
	src, dst := A, B
	if B.Order < A.Order {
		src, dst = B, A
	}
	out := []*Dependence{{
		Src: src, Dst: dst, Kind: kindOf(src, dst),
		Loops: common, Dirs: dirs, Method: "assumed",
	}}
	if len(common) > 0 && A != B {
		rev := make([]Dir, len(common))
		copy(rev, dirs)
		out = append(out, &Dependence{
			Src: dst, Dst: src, Kind: kindOf(dst, src),
			Loops: common, Dirs: rev, Method: "assumed",
		})
	}
	return out
}

func kindOf(src, dst *Access) Kind {
	switch {
	case src.Write && dst.Write:
		return Output
	case src.Write:
		return Flow
	case dst.Write:
		return Anti
	default:
		return Input
	}
}

// ---- periodic families (§6, L22) ----

// testPeriodic handles two periodic subscripts with fully constant
// rings of equal period — one family (the paper's L22 swap) or two
// parallel flip-flops (the paper's L12 pair: "for any fixed iter, j
// and jold have different values"). The subscripts collide exactly
// when hB - hA lands in a residue class mod the period; each feasible
// residue yields one dependence per ordering.
func (t *tester) testPeriodic(A, B *Access, ca, cb *iv.Classification) ([]*Dependence, bool) {
	p := ca.Period
	if p < 2 || cb.Period != p {
		return nil, false
	}
	ringA, okA := constRing(ca)
	ringB, okB := constRing(cb)
	if !okA || !okB {
		return nil, false
	}
	// value at iteration h is ring[(phase - h) mod p]; equality at
	// (hA, hB) iff ringA[(phA-hA) mod p] == ringB[(phB-hB) mod p].
	// For each matching slot pair (a, b): hB - hA ≡ (phB-b) - (phA-a)
	// (mod p).
	residues := map[int]bool{}
	for a := 0; a < p; a++ {
		for b := 0; b < p; b++ {
			if ringA[a].Equal(ringB[b]) {
				r := ((cb.Phase - b - ca.Phase + a) % p)
				residues[((r%p)+p)%p] = true
			}
		}
	}
	eqn := fmt.Sprintf("ringA(%d - h) = ringB(%d - h')", ca.Phase, cb.Phase)

	var out []*Dependence
	mk := func(src, dst *Access, residue int) {
		dirs := DirLT
		if residue == 0 {
			// Same-iteration collisions exist; order within the body.
			if src.Order < dst.Order || src == dst {
				dirs |= DirEQ
			}
		}
		if src == dst && residue == 0 {
			dirs &^= DirEQ // the same instance is not a dependence
			if dirs == 0 {
				return
			}
		}
		out = append(out, &Dependence{
			Src: src, Dst: dst, Kind: kindOf(src, dst),
			Loops: []*loops.Loop{A.Loop}, Dirs: []Dir{dirs},
			Modulus: p, Residue: residue,
			Equation: eqn, Method: "periodic",
		})
	}
	for r := 0; r < p; r++ {
		if !residues[r] {
			continue
		}
		mk(A, B, r)
		if A != B {
			mk(B, A, (p-r)%p)
		}
	}
	return out, true // possibly empty: proven independent
}

// constRing extracts a periodic classification's ring as constants.
func constRing(c *iv.Classification) ([]rational.Rat, bool) {
	if len(c.Initials) != c.Period {
		return nil, false
	}
	out := make([]rational.Rat, c.Period)
	for i, e := range c.Initials {
		v, ok := e.ConstVal()
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// ---- monotonic families (§6, Figure 10) ----

// testMonotonic handles two subscripts in one monotonic family:
// strict + identical subscript value ⇒ (=) only; otherwise the ordered
// pair gets (≤) and the reversed pair (<).
func (t *tester) testMonotonic(A, B *Access, ca, cb *iv.Classification) ([]*Dependence, bool) {
	sameValue := A.Value.Args[0] == B.Value.Args[0]
	l := A.Loop
	var out []*Dependence

	// §5.4: both sites strict — either family-wide or by being
	// post-dominated by the strict increment.
	strictBoth := t.strictAtSite(A, ca) && t.strictAtSite(B, cb)
	if sameValue && strictBoth {
		// Distinct iterations give distinct subscripts: only the
		// loop-independent dependence remains (paper: array B ⇒ (=),
		// and array C's self-output disappears entirely).
		src, dst := A, B
		if B.Order < A.Order {
			src, dst = B, A
		}
		if A != B {
			method := "monotonic-strict"
			if !ca.Strict {
				method = "monotonic-strict-at-site" // §5.4 upgrade
			}
			out = append(out, &Dependence{
				Src: src, Dst: dst, Kind: kindOf(src, dst),
				Loops: []*loops.Loop{l}, Dirs: []Dir{DirEQ},
				Method: method,
			})
		}
		return out, true
	}

	// Non-strict (or different members): plateaus allow reuse in later
	// iterations but never earlier ones with a different value — the
	// ordered pair carries (≤), the reverse (<) (paper: array F).
	mk := func(src, dst *Access, dirs Dir) {
		out = append(out, &Dependence{
			Src: src, Dst: dst, Kind: kindOf(src, dst),
			Loops: []*loops.Loop{l}, Dirs: []Dir{dirs},
			Method: "monotonic",
		})
	}
	first, second := A, B
	if B.Order < A.Order {
		first, second = B, A
	}
	if A == B {
		mk(A, A, DirLT)
	} else {
		mk(first, second, DirLT|DirEQ)
		mk(second, first, DirLT)
	}
	return out, true
}

// ---- affine dependence equations (§6) ----

// variable is one unknown of the dependence equation after direction
// substitution: an integer coefficient and inclusive bounds (nil bound
// = unbounded on that side).
type variable struct {
	coeff  int64
	lo, hi *int64
}

// testAffine decides the pair from its dependence equation. The
// verdict (see verdict.go) comes from the previous analysis's table
// when it holds the equation, and from solveAffine otherwise; either
// way it joins this run's table.
func (t *tester) testAffine(A, B *Access, fa, fb *iv.IterForm, after int) ([]*Dependence, bool) {
	common := commonLoops(A, B)

	eq, ok := t.buildEquation(A, B, fa, fb, common)
	if !ok {
		return t.assumed(A, B), false
	}

	// One budget step per direction vector of {<,=,>}^d. A nest too
	// deep to pay for them all (or for 3^d to fit in int64) gets the
	// conservative answer instead of a wrapped count.
	nd := len(common)
	total, ok := safemath.Pow(3, int64(nd))
	if c := t.budget.Ceiling(); !ok || c > 0 && total > c {
		return t.assumed(A, B), false
	}
	same, aFirst := A == B, A.Order <= B.Order
	t.scr.key = appendVerdictKey(t.scr.key[:0], eq, same, aFirst, t.opts.maxExact())
	v := t.prev[string(t.scr.key)]
	if v != nil {
		// A reused verdict charges the steps its solve charged, so
		// limits trip exactly where they would without the table.
		t.budget.Steps(total)
		t.rec.Count("depend.verdict.reused")
	} else {
		v = t.solveAffine(eq, same, aFirst, total)
		v.key = string(t.scr.key)
	}
	if t.verdicts == nil {
		t.verdicts = make(map[string]*verdict, len(t.prev))
	}
	t.verdicts[v.key] = v
	if v.independent() {
		return nil, true
	}
	text := A.equationSide(0) + " = " + B.equationSide(1)

	// Express each source's dependence from the table's directions and
	// distance, in fresh slices: the verdict is shared and immutable.
	var out []*Dependence
	for s, srcA := range []bool{true, false} {
		if !v.has[s] {
			continue
		}
		src, dst := A, B
		if !srcA {
			src, dst = B, A
		}
		dep := &Dependence{
			Src: src, Dst: dst, Kind: kindOf(src, dst),
			Loops: common, Dirs: make([]Dir, nd),
			AfterIterations: after,
			Equation:        text,
			Method:          v.method,
		}
		copy(dep.Dirs, v.dirs[s*nd:])
		if v.dist != nil {
			dep.Distance = make([]int64, nd)
			for i, d := range v.dist {
				if srcA {
					dep.Distance[i] = d
				} else {
					dep.Distance[i] = -d
				}
			}
		}
		out = append(out, dep)
	}
	return out, false
}

// solveAffine tests each of the total = 3^d direction vectors over the
// common nest with the exact solver (small constant spaces), the GCD
// test, and Banerjee-style interval bounds, merging the feasible ones
// by source; when any is feasible it also asks the exact solvers
// whether all solutions share one distance vector. same and aFirst are
// the pair's A == B and A.Order <= B.Order.
func (t *tester) solveAffine(eq *equation, same, aFirst bool, total int64) *verdict {
	nd := len(eq.ca)
	v := &verdict{dirs: make([]Dir, 2*nd)}
	for mask := int64(0); mask < total; mask++ {
		psi := make([]Dir, nd)
		m := mask
		for i := 0; i < nd; i++ {
			psi[i] = []Dir{DirLT, DirEQ, DirGT}[m%3]
			m /= 3
		}
		if !t.feasible(eq, psi) {
			continue
		}
		// Who runs first? First non-= entry; all-= uses body order.
		srcA := aFirst
		loopIndependent := true
		for _, d := range psi {
			if d == DirLT {
				srcA, loopIndependent = true, false
				break
			}
			if d == DirGT {
				srcA, loopIndependent = false, false
				break
			}
		}
		if same {
			if loopIndependent {
				continue // same instance
			}
			if !srcA {
				continue // mirror image of an already-counted vector
			}
		}
		// Express the vector from the source's point of view.
		s := 0
		if !srcA {
			s = 1
		}
		v.has[s] = true
		for i, d := range psi {
			if !srcA {
				d = flip(d)
			}
			v.dirs[s*nd+i] |= d
		}
	}
	v.method = eq.method
	if v.independent() {
		return v
	}

	// The exact solvers can also determine whether all solutions
	// share one distance vector (dst iteration minus src iteration).
	if len(eq.per) > 0 {
		// slot-dependent: no single distance vector
	} else if t.deltaApplicable(eq) {
		if feasible, dd, unique := t.deltaSolve(eq, nil); feasible && unique {
			v.dist = dd
		}
	} else if dd, unique := t.exactDistance(eq); unique {
		v.dist = dd
	}
	return v
}

func flip(d Dir) Dir {
	switch d {
	case DirLT:
		return DirGT
	case DirGT:
		return DirLT
	}
	return d
}

// equation is formA(h) - formB(h') = -constDiff in integer form.
type equation struct {
	// Per common loop: coefficients of hA and hB (indices align with
	// the common slice) and per-side iteration bounds (nil = unknown).
	// Bounds differ per side because code above a mid-loop exit test
	// executes once more than the trip count (§5.2).
	ca, cb []int64
	ubA    []*int64
	ubB    []*int64
	// solo variables (loops of only one side, and symbols).
	solos []variable
	// per carries periodic subscript terms; the tester enumerates ring
	// slots (see testAffine).
	per []perEq
	// rhs: the equation is Σ ca·hA - Σ cb·hB + Σ solo = rhs.
	rhs    int64
	method string
}

// perEq is one periodic contribution: on the given side and common-loop
// dimension, the subscript includes contrib[slot] where slot is the ring
// position selected by the iteration: slot ≡ (phase - h) mod p.
type perEq struct {
	dim     int // index into the common loops
	side    int // 0 = A, 1 = B
	phase   int
	p       int
	contrib []int64 // den-scaled coefficient·ring[slot]
}

// modConstraint pins one side's iteration in a dimension to a residue
// class.
type modConstraint struct {
	dim, side, residue, p int
}

// buildEquation clears denominators and splits the two forms into
// common-loop coefficients, solo variables, and symbols.
func (t *tester) buildEquation(A, B *Access, fa, fb *iv.IterForm, common []*loops.Loop) (*equation, bool) {
	// The common nest is at most a few loops deep: a linear scan beats
	// allocating a lookup map per pair.
	inCommon := func(l *loops.Loop) (int, bool) {
		for i, cl := range common {
			if cl == l {
				return i, true
			}
		}
		return 0, false
	}

	// Collect all rationals to scale to integers.
	okAll := true
	den := int64(1)
	scale := func(r rational.Rat) {
		d, ok := lcm(den, r.Den())
		if !ok {
			okAll = false
			return
		}
		den = d
	}
	scale(fa.Const)
	scale(fb.Const)
	for _, c := range fa.Coeffs {
		scale(c)
	}
	for _, c := range fb.Coeffs {
		scale(c)
	}
	for _, c := range fa.Syms {
		scale(c)
	}
	for _, c := range fb.Syms {
		scale(c)
	}
	toInt := func(r rational.Rat) (int64, bool) {
		v := r.Mul(rational.FromInt(den))
		return v.Num(), v.Valid() && v.IsInt()
	}

	eq := &equation{
		ca:  make([]int64, len(common)),
		cb:  make([]int64, len(common)),
		ubA: make([]*int64, len(common)),
		ubB: make([]*int64, len(common)),
	}
	take := func(r rational.Rat) int64 {
		v, ok := toInt(r)
		if !ok {
			okAll = false
		}
		return v
	}

	for i, l := range common {
		eq.ca[i] = take(fa.Coeff(l))
		eq.cb[i] = take(fb.Coeff(l))
		if u, ok := t.iterBound(l, A); ok {
			eq.ubA[i] = u
		}
		if u, ok := t.iterBound(l, B); ok {
			eq.ubB[i] = u
		}
	}
	zero := int64(0)
	soloLoop := func(f *iv.IterForm, sign int64, ac *Access) {
		for _, l := range f.Loops() {
			if _, ok := inCommon(l); ok {
				continue
			}
			c := take(f.Coeffs[l])
			if sign < 0 {
				n, ok := safemath.Neg(c)
				if !ok {
					okAll = false
				}
				c = n
			}
			v := variable{coeff: c, lo: &zero}
			if u, ok := t.iterBound(l, ac); ok {
				v.hi = u
			}
			eq.solos = append(eq.solos, v)
		}
	}
	soloLoop(fa, 1, A)
	soloLoop(fb, -1, B)

	// Symbols: matching coefficients cancel; leftovers are free
	// unbounded integers (conservative). The accumulator is the run
	// scratch's dense value-id table, and leftovers emit in value-id
	// order so the equation is deterministic.
	scr := t.scr
	scr.beginEquation()
	for v, c := range fa.Syms {
		slot := scr.symAccum(v)
		s, ok := safemath.Add(*slot, take(c))
		if !ok {
			okAll = false
		}
		*slot = s
	}
	for v, c := range fb.Syms {
		slot := scr.symAccum(v)
		s, ok := safemath.Sub(*slot, take(c))
		if !ok {
			okAll = false
		}
		*slot = s
	}
	slices.SortFunc(scr.symTouched, ir.ByID)
	for _, v := range scr.symTouched {
		if c := scr.symCoeff[v.ID]; c != 0 {
			eq.solos = append(eq.solos, variable{coeff: c})
		}
	}

	// Periodic subscript terms (composite selector+affine subscripts):
	// each must live on a common loop with a constant ring.
	addPer := func(f *iv.IterForm, side int) bool {
		for _, pt := range f.Per {
			cls := pt.Cls
			dim, ok := inCommon(cls.Loop)
			if !ok {
				return false
			}
			pe := perEq{dim: dim, side: side, phase: cls.Phase, p: cls.Period}
			for _, e := range cls.Initials {
				rv, okc := e.ConstVal()
				if !okc {
					return false
				}
				c, okc2 := toInt(pt.Coeff.Mul(rv))
				if !okc2 {
					return false
				}
				pe.contrib = append(pe.contrib, c)
			}
			eq.per = append(eq.per, pe)
		}
		return true
	}
	if !addPer(fa, 0) || !addPer(fb, 1) {
		return nil, false
	}

	ka := take(fa.Const)
	kb := take(fb.Const)
	rhs, ok := safemath.Sub(kb, ka)
	if !ok || !okAll {
		return nil, false
	}
	eq.rhs = rhs
	return eq, true
}

// iterBound returns the inclusive upper bound of the loop iteration
// number at which access ac can execute. The §5.2 count is the number
// of times the exit test stays, so code above the test runs at
// h = 0..count while code provably below it runs at h = 0..count-1.
func (t *tester) iterBound(l *loops.Loop, ac *Access) (*int64, bool) {
	tc := t.a.TripCount(l)
	base, ok := tc.Const()
	if !ok {
		if tc == nil || !tc.HasMax {
			return nil, false
		}
		base = tc.MaxConst
	}
	u := base // sound for any position in the loop
	if tc.Exit != nil && belowExit(t.a, l, tc.Exit, ac) {
		u = base - 1
	}
	return &u, true
}

// belowExit reports whether the access provably executes only after the
// exit test has stayed: its block is dominated by the exit edge's
// stay-successor (the successor that remains in the loop).
func belowExit(a *iv.Analysis, l *loops.Loop, exit *ir.Block, ac *Access) bool {
	var stay *ir.Block
	for _, s := range exit.Succs {
		if l.Contains(s) {
			stay = s
		}
	}
	if stay == nil {
		return false
	}
	return a.SSA.Dom.Dominates(stay, ac.Value.Block)
}

// lcm returns the least common multiple, reporting ok=false when it
// does not fit in int64 — buildEquation then abandons the affine form
// and the pair is assumed dependent.
func lcm(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 1, true
	}
	g := gcd(a, b)
	return safemath.Mul(a/g, b)
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// feasible tests a direction vector: an exact solve when the space
// is small, otherwise GCD plus Banerjee interval bounds (conservative:
// may say yes when no solution exists, never the reverse).
func (t *tester) feasible(eq *equation, psi []Dir) bool {
	t.budget.Step()
	if len(eq.per) > 0 {
		return t.feasibleWithSlots(eq, psi)
	}
	if t.deltaApplicable(eq) {
		eq.method = "delta"
		ok, _, _ := t.deltaSolve(eq, psi)
		return ok
	}
	if ok, exact := t.exactSolve(eq, psi, nil); exact {
		return ok
	}
	eq.method = "gcd+banerjee"
	vars, ok := substitute(eq, psi)
	if !ok {
		return true // overflow: assume dependence
	}
	if vars == nil {
		return false
	}
	// GCD test.
	g := int64(0)
	for _, v := range vars.vars {
		g = gcd(g, v.coeff)
	}
	if g == 0 {
		if vars.rhs != 0 {
			return false
		}
	} else if vars.rhs%g != 0 {
		return false
	}
	// Banerjee interval.
	lo, hi := interval(vars.vars)
	if lo.finite && vars.rhs < lo.v {
		return false
	}
	if hi.finite && vars.rhs > hi.v {
		return false
	}
	return true
}

type substituted struct {
	vars []variable
	rhs  int64
}

// substitute folds the direction constraints into fresh variables:
//
//	=  : hA = hB = z              coeff (ca-cb), range [0,U]
//	<  : hA = hB - 1 - s, s ≥ 0   coeffs (ca-cb) on hB∈[1,U], -ca on s
//	>  : hA = hB + 1 + s, s ≥ 0   coeffs (ca-cb) on hB∈[0,U-1], +ca on s
//
// Returns out=nil with ok=true when a bound makes the direction
// impossible (e.g. < in a single-iteration loop), and ok=false when the
// substitution arithmetic overflows — the caller must then treat the
// direction as feasible (assume dependence), which is the opposite of
// the nil-out case, so the two must not be conflated.
func substitute(eq *equation, psi []Dir) (out *substituted, ok bool) {
	out = &substituted{rhs: eq.rhs}
	zero := int64(0)
	one := int64(1)
	for i := range eq.ca {
		ca, cb := eq.ca[i], eq.cb[i]
		diff, okD := safemath.Sub(ca, cb)
		if !okD {
			return nil, false
		}
		ubA, ubB := eq.ubA[i], eq.ubB[i]
		switch psi[i] {
		case DirEQ:
			// z = hA = hB: bounded by the tighter side.
			ub := ubA
			if ub == nil || (ubB != nil && *ubB < *ub) {
				ub = ubB
			}
			out.vars = append(out.vars, variable{coeff: diff, lo: &zero, hi: ub})
		case DirLT:
			// hA = hB - 1 - s: hB ≥ 1, s ≥ 0.
			if ubB != nil && *ubB < 1 {
				return nil, true
			}
			if ubA != nil && *ubA < 0 {
				return nil, true
			}
			negCA, okN := safemath.Neg(ca)
			rhs, okR := safemath.Add(out.rhs, ca)
			if !okN || !okR {
				return nil, false
			}
			out.vars = append(out.vars, variable{coeff: diff, lo: &one, hi: ubB})
			out.vars = append(out.vars, variable{coeff: negCA, lo: &zero, hi: ubA})
			out.rhs = rhs
		case DirGT:
			// hA = hB + 1 + s: hB ≤ ubB and hA ≤ ubA ⇒ hB ≤ ubA-1 too.
			if ubA != nil && *ubA < 1 {
				return nil, true
			}
			hiB := ubB
			if ubA != nil {
				u := *ubA - 1
				if hiB == nil || u < *hiB {
					hiB = &u
				}
			}
			rhs, okR := safemath.Sub(out.rhs, ca)
			if !okR {
				return nil, false
			}
			out.vars = append(out.vars, variable{coeff: diff, lo: &zero, hi: hiB})
			out.vars = append(out.vars, variable{coeff: ca, lo: &zero, hi: ubA})
			out.rhs = rhs
		}
	}
	out.vars = append(out.vars, eq.solos...)
	return out, true
}

type extreme struct {
	v      int64
	finite bool
}

// interval sums per-variable contribution ranges. A product or sum
// that overflows widens that side to infinity — the Banerjee exclusion
// then cannot fire on it, which is the conservative direction.
func interval(vars []variable) (lo, hi extreme) {
	lo, hi = extreme{0, true}, extreme{0, true}
	mul := func(a, b int64) extreme {
		v, ok := safemath.Mul(a, b)
		return extreme{v, ok}
	}
	for _, v := range vars {
		if v.coeff == 0 {
			continue
		}
		var vlo, vhi extreme
		switch {
		case v.lo != nil && v.hi != nil:
			a, b := mul(v.coeff, *v.lo), mul(v.coeff, *v.hi)
			if a.finite && b.finite && a.v > b.v {
				a, b = b, a
			} else if a.finite != b.finite {
				// One end overflowed: keep only the finite end on the
				// side a positive/negative coefficient sends it to.
				fin := a
				if b.finite {
					fin = b
				}
				if (v.coeff > 0) == (fin == a) {
					a, b = fin, extreme{}
				} else {
					a, b = extreme{}, fin
				}
			}
			vlo, vhi = a, b
		case v.lo != nil: // [lo, +inf)
			if v.coeff > 0 {
				vlo, vhi = mul(v.coeff, *v.lo), extreme{}
			} else {
				vlo, vhi = extreme{}, mul(v.coeff, *v.lo)
			}
		case v.hi != nil: // (-inf, hi]
			if v.coeff > 0 {
				vlo, vhi = extreme{}, mul(v.coeff, *v.hi)
			} else {
				vlo, vhi = mul(v.coeff, *v.hi), extreme{}
			}
		default:
			vlo, vhi = extreme{}, extreme{}
		}
		lo = addExtreme(lo, vlo)
		hi = addExtreme(hi, vhi)
	}
	return lo, hi
}

func addExtreme(a, b extreme) extreme {
	if !a.finite || !b.finite {
		return extreme{}
	}
	v, ok := safemath.Add(a.v, b.v)
	if !ok {
		return extreme{}
	}
	return extreme{v, true}
}

// mulCap multiplies box dimensions with overflow checking, failing when
// the product leaves the exact-enumeration ceiling.
func mulCap(size, n, cap int64) (int64, bool) {
	p, ok := safemath.Mul(size, n)
	if !ok || p > cap {
		return 0, false
	}
	return p, true
}

// boxSize computes the equation's enumeration-box size. ok=false means
// the box is unbounded, or its size overflows or exceeds the exact
// ceiling; the exact solver must then decline (the unchecked version of
// this product could wrap to a small positive number and license an
// effectively unbounded enumeration — a denial of service). A size of
// zero means some dimension is genuinely empty.
func (t *tester) boxSize(eq *equation) (int64, bool) {
	max := int64(t.opts.maxExact())
	size := int64(1)
	dim := func(lo, hi int64) bool {
		if hi < lo {
			size = 0
			return true
		}
		n, ok := safemath.Sub(hi, lo)
		if ok {
			n, ok = safemath.Add(n, 1)
		}
		if ok {
			size, ok = mulCap(size, n, max)
		}
		return ok
	}
	for i := range eq.ca {
		if eq.ubA[i] == nil || eq.ubB[i] == nil {
			return 0, false
		}
		if !dim(0, *eq.ubA[i]) || !dim(0, *eq.ubB[i]) {
			return 0, false
		}
	}
	for _, s := range eq.solos {
		if s.lo == nil || s.hi == nil {
			return 0, false
		}
		if !dim(*s.lo, *s.hi) {
			return 0, false
		}
	}
	return size, true
}

// sumBoundOK reports whether every partial sum the exact solvers compute
// over the equation's box provably fits in int64, so their inner loops
// can use raw arithmetic. The bound is Σ |c|·max|var| over every term;
// any overflow while computing the bound itself counts as "not provably
// safe" and the solvers decline.
func sumBoundOK(eq *equation) bool {
	total := int64(0)
	add := func(c, ub int64) bool {
		a, ok := safemath.Abs(c)
		if ok {
			a, ok = safemath.Mul(a, ub)
		}
		if ok {
			total, ok = safemath.Add(total, a)
		}
		return ok
	}
	for i := range eq.ca {
		if eq.ubA[i] == nil || eq.ubB[i] == nil {
			return false
		}
		if *eq.ubA[i] < 0 || *eq.ubB[i] < 0 {
			continue // empty dimension: never enumerated
		}
		if !add(eq.ca[i], *eq.ubA[i]) || !add(eq.cb[i], *eq.ubB[i]) {
			return false
		}
	}
	for _, s := range eq.solos {
		if s.lo == nil || s.hi == nil {
			return false
		}
		m, ok := safemath.Abs(*s.lo)
		if !ok {
			return false
		}
		m2, ok := safemath.Abs(*s.hi)
		if !ok {
			return false
		}
		if m2 > m {
			m = m2
		}
		if !add(s.coeff, m) {
			return false
		}
	}
	return true
}

// ---- polynomial subscripts (§6's pointer to [Ban76]) ----

// hasClosedForm reports whether the classification evaluates exactly at
// any iteration (numeric linear, polynomial, or geometric).
func hasClosedForm(c *iv.Classification) bool {
	if c == nil {
		return false
	}
	switch c.Kind {
	case iv.Invariant:
		_, ok := c.Expr.ConstVal()
		return ok
	case iv.Linear:
		_, _, ok := c.LinearConst()
		return ok
	case iv.Polynomial, iv.Geometric:
		return c.Coeffs != nil
	}
	return false
}

// isPolyGeo reports a class the affine machinery cannot express.
func isPolyGeo(c *iv.Classification) bool {
	return c != nil && (c.Kind == iv.Polynomial || c.Kind == iv.Geometric)
}

// testPolynomial decides dependence between two closed-form subscripts
// of one loop by exact evaluation over the bounded iteration space —
// the paper's pointer at Banerjee's treatment of polynomial induction
// variables made concrete. Returns done=false when the loop bounds are
// unknown or the space is too large.
func (t *tester) testPolynomial(A, B *Access, ca, cb *iv.Classification) ([]*Dependence, bool) {
	ubA, okA := t.iterBound(A.Loop, A)
	ubB, okB := t.iterBound(B.Loop, B)
	if !okA || !okB {
		return nil, false
	}
	na, okNA := safemath.Add(*ubA, 1)
	nb, okNB := safemath.Add(*ubB, 1)
	if !okNA || !okNB {
		return nil, false
	}
	if sz, ok := safemath.Mul(na, nb); !ok || sz > int64(t.opts.maxExact()) {
		return nil, false
	}

	type rel struct {
		dir  Dir
		dist int64
	}
	var rels []rel
	// B's values are evaluated once, and only when some h1 runs: with
	// no A iteration the pair is independent even if B's fail.
	vb := t.scr.polyB[:0]
	for h2 := int64(0); h2 <= *ubB && *ubA >= 0; h2++ {
		v2, ok2 := cb.PolyEval(h2)
		if !ok2 {
			return nil, false
		}
		vb = append(vb, v2)
	}
	t.scr.polyB = vb
	for h1 := int64(0); h1 <= *ubA; h1++ {
		v1, ok1 := ca.PolyEval(h1)
		if !ok1 {
			return nil, false
		}
		for h2, v2 := range vb {
			h2 := int64(h2)
			if !v1.Equal(v2) {
				continue
			}
			switch {
			case h1 < h2:
				rels = append(rels, rel{DirLT, h2 - h1})
			case h1 == h2:
				rels = append(rels, rel{DirEQ, 0})
			default:
				rels = append(rels, rel{DirGT, h2 - h1})
			}
		}
	}
	if len(rels) == 0 {
		return nil, true // proven independent
	}

	// Merge into at most two ordered dependences, with an exact
	// distance when all solutions share one.
	var out []*Dependence
	for _, srcA := range []bool{true, false} {
		dirs := Dir(0)
		var dist *int64
		distUnique := true
		n := 0
		for _, r := range rels {
			effSrcA := r.dir != DirGT // A first unless A's iteration is later
			if r.dir == DirEQ {
				effSrcA = A.Order <= B.Order
				if A == B {
					continue // same instance
				}
			}
			if effSrcA != srcA {
				continue
			}
			if A == B && !srcA {
				continue // mirror of a counted pair
			}
			n++
			d := r.dir
			dd := r.dist
			if !srcA {
				d = flip(d)
				dd = -dd
			}
			dirs |= d
			if dist == nil {
				v := dd
				dist = &v
			} else if *dist != dd {
				distUnique = false
			}
		}
		if n == 0 {
			continue
		}
		src, dst := A, B
		if !srcA {
			src, dst = B, A
		}
		dep := &Dependence{
			Src: src, Dst: dst, Kind: kindOf(src, dst),
			Loops: []*loops.Loop{A.Loop}, Dirs: []Dir{dirs},
			Method: "polynomial-exact",
		}
		if distUnique && dist != nil {
			dep.Distance = []int64{*dist}
		}
		out = append(out, dep)
	}
	return out, true
}

// ---- distance-space solving (delta-test style, [GKT91]) ----

// deltaApplicable reports whether the equation can be solved over
// distance vectors: every common loop has equal coefficients on both
// sides (strong SIV per dimension), there are no solo variables, and
// the distance box is small enough to enumerate. The distance space has
// size Π(ubA+ubB+1) — linear in the trip counts where the iteration
// space is quadratic.
func (t *tester) deltaApplicable(eq *equation) bool {
	if len(eq.solos) != 0 || len(eq.ca) == 0 {
		return false
	}
	max := int64(t.opts.maxExact())
	size := int64(1)
	for i := range eq.ca {
		if eq.ca[i] != eq.cb[i] {
			return false
		}
		if eq.ubA[i] == nil || eq.ubB[i] == nil {
			return false
		}
		n, ok := safemath.Add(*eq.ubA[i], *eq.ubB[i])
		if ok {
			n, ok = safemath.Add(n, 1)
		}
		if ok {
			size, ok = mulCap(size, n, max)
		}
		if !ok || n <= 0 {
			return false
		}
	}
	return sumBoundOK(eq)
}

// deltaSolve enumerates distance vectors d (d_k = hB_k - hA_k, each
// realizable within the per-side boxes) satisfying the equation and the
// direction constraints; returns whether any solution exists and, when
// all solutions agree, the unique distance vector.
func (t *tester) deltaSolve(eq *equation, psi []Dir) (feasible bool, dist []int64, unique bool) {
	return t.deltaSolveUnified(eq, psi, nil)
}

func (t *tester) feasibleWithSlots(eq *equation, psi []Dir) bool {
	combos := 1
	for _, pe := range eq.per {
		combos *= pe.p
		if combos > 1<<10 {
			return true // too many rings: conservatively dependent
		}
	}
	eq.method = "periodic+affine"
	slots := make([]int, len(eq.per))
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(eq.per) {
			adj := eq.rhs
			var mods []modConstraint
			for i, pe := range eq.per {
				c := pe.contrib[slots[i]]
				// The term sits inside a form: formA - formB = 0 moves
				// A-side constants negatively into rhs, B-side positively.
				var ok bool
				if pe.side == 0 {
					adj, ok = safemath.Sub(adj, c)
				} else {
					adj, ok = safemath.Add(adj, c)
				}
				if !ok {
					return true // overflow: assume dependence
				}
				// slot ≡ (phase - h) mod p  ⇒  h ≡ (phase - slot) mod p.
				r := ((pe.phase-slots[i])%pe.p + pe.p) % pe.p
				mods = append(mods, modConstraint{dim: pe.dim, side: pe.side, residue: r, p: pe.p})
			}
			sub := *eq
			sub.per = nil
			sub.rhs = adj
			return t.feasibleMods(&sub, psi, mods)
		}
		for v := 0; v < eq.per[k].p; v++ {
			slots[k] = v
			if rec(k + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// feasibleMods tests a direction vector under per-side modular
// constraints: exactly when bounded and small, conservatively otherwise
// (delta with derived distance residues, then GCD+Banerjee ignoring the
// residues — both sound over-approximations).
func (t *tester) feasibleMods(eq *equation, psi []Dir, mods []modConstraint) bool {
	if ok, exact := t.exactSolve(eq, psi, mods); exact {
		return ok
	}
	if t.deltaApplicable(eq) {
		// Combine same-dim A/B constraints into distance residues.
		type key struct{ dim, p int }
		aRes := map[key]int{}
		bRes := map[key]int{}
		for _, m := range mods {
			if m.side == 0 {
				aRes[key{m.dim, m.p}] = m.residue
			} else {
				bRes[key{m.dim, m.p}] = m.residue
			}
		}
		dmods := map[int][2]int{} // dim -> (residue, p)
		for k, ra := range aRes {
			if rb, ok := bRes[k]; ok {
				dmods[k.dim] = [2]int{((rb-ra)%k.p + k.p) % k.p, k.p}
			}
		}
		ok, _, _ := t.deltaSolveUnified(eq, psi, dmods)
		return ok
	}
	// Fall back to the affine machinery without the residues.
	vars, ok := substitute(eq, psi)
	if !ok {
		return true // overflow: assume dependence
	}
	if vars == nil {
		return false
	}
	g := int64(0)
	for _, v := range vars.vars {
		g = gcd(g, v.coeff)
	}
	if g == 0 {
		if vars.rhs != 0 {
			return false
		}
	} else if vars.rhs%g != 0 {
		return false
	}
	lo, hi := interval(vars.vars)
	if lo.finite && vars.rhs < lo.v {
		return false
	}
	if hi.finite && vars.rhs > hi.v {
		return false
	}
	return true
}

// deltaSolveUnified is the distance-space enumerator behind deltaSolve
// and the composite-subscript path: optional direction constraints
// (psi) and optional per-dimension distance residues (dmods: dim ->
// (residue, modulus)). The equation reads Σ c_k·(hA_k - hB_k) = rhs, so
// over distances d = hB - hA the target is -rhs.
func (t *tester) deltaSolveUnified(eq *equation, psi []Dir, dmods map[int][2]int) (feasible bool, dist []int64, unique bool) {
	nd := len(eq.ca)
	d := make([]int64, nd)
	var rec func(dim int, acc int64)
	rec = func(dim int, acc int64) {
		if dim == nd {
			if acc != -eq.rhs {
				return
			}
			if !feasible {
				feasible = true
				dist = append([]int64(nil), d...)
				unique = true
				return
			}
			for i := range d {
				if d[i] != dist[i] {
					unique = false
				}
			}
			return
		}
		lo, hi := -*eq.ubA[dim], *eq.ubB[dim]
		if psi != nil {
			switch psi[dim] {
			case DirLT:
				if lo < 1 {
					lo = 1
				}
			case DirEQ:
				lo, hi = 0, 0
			case DirGT:
				if hi > -1 {
					hi = -1
				}
			}
		}
		for v := lo; v <= hi; v++ {
			if m, ok := dmods[dim]; ok {
				if int((v%int64(m[1])+int64(m[1]))%int64(m[1])) != m[0] {
					continue
				}
			}
			d[dim] = v
			rec(dim+1, acc+eq.ca[dim]*v)
		}
	}
	rec(0, 0)
	return feasible, dist, unique && dist != nil
}
