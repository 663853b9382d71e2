package depend

import (
	"slices"

	"beyondiv/internal/safemath"
)

// The exact solver decides an equation over its whole box when the box
// is bounded and small (boxSize) and every sum over it provably fits in
// int64 (sumBoundOK). One walk answers the three questions the tester
// asks: does a direction vector have a solution, does it have one under
// per-side residue constraints (composite periodic subscripts), and do
// all solutions share one distance vector.
//
// The walk fixes the common dimensions outermost first, A's iteration
// before B's, then the solo variables, and carries the partial sum of
// the terms fixed so far. It visits far fewer points than the box holds:
//
//   - a direction narrows B's range from A's value before the walk
//     enters it (=: b = a, <: b > a, >: b < a);
//   - a residue constraint steps its side by the period;
//   - the last free variable — the last solo, or B's iteration in the
//     innermost dimension when there are no solos — is solved, not
//     walked: c·x = rhs − partial has one integer root, none, or (c = 0)
//     every x.
//
// The answers are those of enumerating every point and summing every
// term, because the walk's arithmetic is exact. sumBoundOK bounds
// Σ|c|·max|x| over all terms by MaxInt64, so every partial sum fits in
// int64. The one operation enumeration has no counterpart for, the
// residual rhs − partial, is overflow-checked, and when it overflows the
// leaf has no solution: the last term c·x is at most MaxInt64 in
// magnitude and the residual it must equal is not.

// walk is the state of one exact solve, kept in the run's scratch so a
// solve does not allocate once the buffers have grown. It holds a copy
// of the equation, not a pointer: a pointer kept in the scratch would
// move every caller's equation to the heap.
type walk struct {
	eq   equation
	psi  []Dir // nil: no direction constraint
	mods []modConstraint
	// lanes[2·dim+side] is how the walk steps one side of a common
	// dimension.
	lanes  []lane
	ha, hb []int64
	// distance asks for the distance vector instead of stopping at the
	// first solution; dist is hB − hA of the first solution found, and
	// several marks a solution with another distance.
	distance bool
	found    bool
	several  bool
	dist     []int64
}

// lane steps one side of a common dimension through the values
// ≡ res (mod step); step is 1 when no residue constrains the side. more
// marks a second constraint on the same side and dimension (two periodic
// terms of one loop), which the walk checks value by value.
type lane struct {
	step, res int64
	more      bool
}

// first returns the smallest lane value at or above lo.
func (l lane) first(lo int64) int64 {
	if l.step == 1 {
		return lo
	}
	return lo + ((l.res-lo)%l.step+l.step)%l.step
}

// exactSolve reports whether eq has a solution in its box that meets the
// direction vector psi (nil: any) and the residue constraints mods.
// applied is false when the box is unbounded or too large, or its sums
// are not provably exact; the caller then falls back to inexact tests.
func (t *tester) exactSolve(eq *equation, psi []Dir, mods []modConstraint) (found, applied bool) {
	size, ok := t.boxSize(eq)
	if !ok || !sumBoundOK(eq) {
		return false, false
	}
	if size == 0 {
		return false, true // an empty dimension: nothing ever executes
	}
	eq.method = "exact"
	w := t.scr.walkOf(eq, psi, mods, false)
	w.dims(0, 0)
	return w.found, true
}

// exactDistance reports the distance vector hB − hA per common loop when
// eq's box has a solution and every solution shares that vector.
func (t *tester) exactDistance(eq *equation) ([]int64, bool) {
	if len(eq.ca) == 0 || len(eq.per) > 0 {
		return nil, false
	}
	if size, ok := t.boxSize(eq); !ok || size == 0 || !sumBoundOK(eq) {
		return nil, false
	}
	w := t.scr.walkOf(eq, nil, nil, true)
	w.dims(0, 0)
	if !w.found || w.several {
		return nil, false
	}
	return slices.Clone(w.dist), true
}

// walkOf readies the scratch walk for one solve of eq.
func (s *dependScratch) walkOf(eq *equation, psi []Dir, mods []modConstraint, distance bool) *walk {
	nd := len(eq.ca)
	w := &s.walk
	*w = walk{
		eq: *eq, psi: psi, mods: mods, distance: distance,
		lanes: w.lanes[:0], ha: w.ha[:0], hb: w.hb[:0], dist: w.dist[:0],
	}
	for range 2 * nd {
		w.lanes = append(w.lanes, lane{step: 1})
	}
	for _, m := range mods {
		l := &w.lanes[2*m.dim+m.side]
		if l.step == 1 {
			l.step, l.res = int64(m.p), int64(m.residue)
		} else {
			l.more = true
		}
	}
	w.ha = slices.Grow(w.ha, nd)[:nd]
	w.hb = slices.Grow(w.hb, nd)[:nd]
	w.dist = slices.Grow(w.dist, nd)[:nd]
	return w
}

// dims walks common dimension k and those inside it, given the partial
// sum of the terms already fixed. It returns true to stop the walk.
func (w *walk) dims(k int, partial int64) bool {
	eq := &w.eq
	if k == len(eq.ca) {
		if len(eq.solos) == 0 {
			// No variable at all: the equation reads 0 = rhs.
			return partial == eq.rhs && w.hit()
		}
		return w.solos(0, partial) && w.hit()
	}
	ca, cb, ubA, ubB := eq.ca[k], eq.cb[k], *eq.ubA[k], *eq.ubB[k]
	la, lb := w.lanes[2*k], w.lanes[2*k+1]
	last := k == len(eq.ca)-1 && len(eq.solos) == 0
	for a := la.first(0); a <= ubA; a += la.step {
		if la.more && !w.modsHold(k, 0, a) {
			continue
		}
		w.ha[k] = a
		pa := partial + ca*a
		lo, hi := int64(0), ubB
		if w.psi != nil {
			switch w.psi[k] {
			case DirLT:
				lo = a + 1
			case DirEQ:
				lo, hi = a, min(a, ubB)
			case DirGT:
				hi = min(a-1, ubB)
			}
		}
		if last {
			if w.solveB(k, pa, lo, hi) {
				return true
			}
			continue
		}
		for b := lb.first(lo); b <= hi; b += lb.step {
			if lb.more && !w.modsHold(k, 1, b) {
				continue
			}
			w.hb[k] = b
			if w.dims(k+1, pa-cb*b) {
				return true
			}
		}
	}
	return false
}

// solveB solves the innermost dimension's B iteration, −cb·b =
// rhs − partial with b in [lo, hi] on its lane, recording each solution.
func (w *walk) solveB(k int, partial, lo, hi int64) bool {
	l := w.lanes[2*k+1]
	b, one, all := root(-w.eq.cb[k], w.eq.rhs, partial)
	if one {
		if b < lo || b > hi || b != l.first(b) || l.more && !w.modsHold(k, 1, b) {
			return false
		}
		w.hb[k] = b
		return w.hit()
	}
	if !all {
		return false
	}
	for b := l.first(lo); b <= hi; b += l.step {
		if l.more && !w.modsHold(k, 1, b) {
			continue
		}
		w.hb[k] = b
		if w.hit() {
			return true
		}
	}
	return false
}

// solos reports whether solo variables k onward can complete the
// equation given the partial sum; the last one is solved.
func (w *walk) solos(k int, partial int64) bool {
	s := w.eq.solos[k]
	lo, hi := *s.lo, *s.hi
	if k == len(w.eq.solos)-1 {
		x, one, all := root(s.coeff, w.eq.rhs, partial)
		return all || one && lo <= x && x <= hi
	}
	for v := lo; ; v++ {
		if w.solos(k+1, partial+s.coeff*v) {
			return true
		}
		if v == hi {
			return false
		}
	}
}

// root solves c·x = rhs − partial: the one integer root (one), or every
// x (all: c = 0 and a zero residual), or none.
func root(c, rhs, partial int64) (x int64, one, all bool) {
	r, ok := safemath.Sub(rhs, partial)
	if !ok {
		return 0, false, false // see the identity argument above
	}
	if c == 0 {
		return 0, false, r == 0
	}
	if r%c != 0 {
		return 0, false, false
	}
	x, ok = safemath.Div(r, c)
	return x, ok, false
}

// hit records a solution at the walk's current point and reports
// whether the walk can stop.
func (w *walk) hit() bool {
	if !w.distance {
		w.found = true
		return true
	}
	if !w.found {
		w.found = true
		for i := range w.dist {
			w.dist[i] = w.hb[i] - w.ha[i]
		}
		return false
	}
	for i := range w.dist {
		if w.hb[i]-w.ha[i] != w.dist[i] {
			w.several = true
			return true
		}
	}
	return false
}

// modsHold reports whether h meets every residue constraint on one side
// of a common dimension.
func (w *walk) modsHold(dim, side int, h int64) bool {
	for _, m := range w.mods {
		if m.dim == dim && m.side == side && int((h%int64(m.p)+int64(m.p))%int64(m.p)) != m.residue {
			return false
		}
	}
	return true
}
