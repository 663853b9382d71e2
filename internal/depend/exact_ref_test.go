package depend

import (
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/safemath"
)

// The reference enumerators: the exact tests as they were before the
// walker in exact.go replaced them, kept verbatim as the oracle the
// differential tests in exact_test.go compare the walker against. Each
// walks the whole box point by point and re-sums every term at every
// point, so each is obviously the definition of its answer; none is
// called outside tests.

// refExactFeasible enumerates the full iteration box when it is small and
// fully bounded with no symbolic variables. Returns (answer, applied).
func (t *tester) refExactFeasible(eq *equation, psi []Dir) (bool, bool) {
	size, ok := t.boxSize(eq)
	if !ok || !sumBoundOK(eq) {
		return false, false
	}
	if size == 0 {
		return false, true // an empty dimension: nothing ever executes
	}
	eq.method = "exact"

	nd := len(eq.ca)
	ha := make([]int64, nd)
	hb := make([]int64, nd)
	solo := make([]int64, len(eq.solos))

	var rec func(dim int) bool
	var evalSolo func(k int) bool
	evalSolo = func(k int) bool {
		if k == len(eq.solos) {
			// Evaluate the equation.
			sum := int64(0)
			for i := 0; i < nd; i++ {
				sum += eq.ca[i]*ha[i] - eq.cb[i]*hb[i]
			}
			for i, s := range eq.solos {
				sum += s.coeff * solo[i]
			}
			return sum == eq.rhs
		}
		for v := *eq.solos[k].lo; v <= *eq.solos[k].hi; v++ {
			solo[k] = v
			if evalSolo(k + 1) {
				return true
			}
		}
		return false
	}
	rec = func(dim int) bool {
		if dim == nd {
			return evalSolo(0)
		}
		uA, uB := *eq.ubA[dim], *eq.ubB[dim]
		for a := int64(0); a <= uA; a++ {
			for b := int64(0); b <= uB; b++ {
				switch psi[dim] {
				case DirLT:
					if !(a < b) {
						continue
					}
				case DirEQ:
					if a != b {
						continue
					}
				case DirGT:
					if !(a > b) {
						continue
					}
				}
				ha[dim], hb[dim] = a, b
				if rec(dim + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0), true
}

// refExactFeasibleMods is refExactFeasible with per-side residue filters.
func (t *tester) refExactFeasibleMods(eq *equation, psi []Dir, mods []modConstraint) (bool, bool) {
	nd := len(eq.ca)
	size, ok := t.boxSize(eq)
	if !ok || !sumBoundOK(eq) {
		return false, false
	}
	if size == 0 {
		return false, true // an empty dimension: nothing ever executes
	}

	okMod := func(dim int, side int, h int64) bool {
		for _, m := range mods {
			if m.dim == dim && m.side == side {
				if int((h%int64(m.p)+int64(m.p))%int64(m.p)) != m.residue {
					return false
				}
			}
		}
		return true
	}

	ha := make([]int64, nd)
	hb := make([]int64, nd)
	solo := make([]int64, len(eq.solos))
	var recSolo func(k int) bool
	recSolo = func(k int) bool {
		if k == len(eq.solos) {
			sum := int64(0)
			for i := 0; i < nd; i++ {
				sum += eq.ca[i]*ha[i] - eq.cb[i]*hb[i]
			}
			for i, s := range eq.solos {
				sum += s.coeff * solo[i]
			}
			return sum == eq.rhs
		}
		for v := *eq.solos[k].lo; v <= *eq.solos[k].hi; v++ {
			solo[k] = v
			if recSolo(k + 1) {
				return true
			}
		}
		return false
	}
	var rec func(dim int) bool
	rec = func(dim int) bool {
		if dim == nd {
			return recSolo(0)
		}
		for a := int64(0); a <= *eq.ubA[dim]; a++ {
			if !okMod(dim, 0, a) {
				continue
			}
			for b := int64(0); b <= *eq.ubB[dim]; b++ {
				if !okMod(dim, 1, b) {
					continue
				}
				switch psi[dim] {
				case DirLT:
					if !(a < b) {
						continue
					}
				case DirEQ:
					if a != b {
						continue
					}
				case DirGT:
					if !(a > b) {
						continue
					}
				}
				ha[dim], hb[dim] = a, b
				if rec(dim + 1) {
					return true
				}
			}
		}
		return false
	}
	return rec(0), true
}

// refExactDistance enumerates the bounded solution space and reports the
// common per-loop distance hB - hA when every solution shares it.
func (t *tester) refExactDistance(eq *equation) ([]int64, bool) {
	nd := len(eq.ca)
	if nd == 0 || len(eq.per) > 0 {
		return nil, false
	}
	if _, ok := t.boxSize(eq); !ok || !sumBoundOK(eq) {
		return nil, false
	}

	ha := make([]int64, nd)
	hb := make([]int64, nd)
	solo := make([]int64, len(eq.solos))
	var dist []int64
	unique := true

	var recSolo func(k int) bool
	recSolo = func(k int) bool {
		if k == len(eq.solos) {
			sum := int64(0)
			for i := 0; i < nd; i++ {
				sum += eq.ca[i]*ha[i] - eq.cb[i]*hb[i]
			}
			for i, s := range eq.solos {
				sum += s.coeff * solo[i]
			}
			return sum == eq.rhs
		}
		for v := *eq.solos[k].lo; v <= *eq.solos[k].hi; v++ {
			solo[k] = v
			if recSolo(k + 1) {
				return true
			}
		}
		return false
	}
	var rec func(dim int)
	rec = func(dim int) {
		if !unique {
			return
		}
		if dim == nd {
			if !recSolo(0) {
				return
			}
			d := make([]int64, nd)
			for i := 0; i < nd; i++ {
				d[i] = hb[i] - ha[i]
			}
			if dist == nil {
				dist = d
				return
			}
			for i := range d {
				if d[i] != dist[i] {
					unique = false
					return
				}
			}
			return
		}
		for a := int64(0); a <= *eq.ubA[dim]; a++ {
			for b := int64(0); b <= *eq.ubB[dim]; b++ {
				ha[dim], hb[dim] = a, b
				rec(dim + 1)
				if !unique {
					return
				}
			}
		}
	}
	rec(0)
	return dist, unique && dist != nil
}

// refTestPolynomial decides dependence between two closed-form subscripts
// of one loop by exact evaluation over the bounded iteration space —
// the paper's pointer at Banerjee's treatment of polynomial induction
// variables made concrete. Returns done=false when the loop bounds are
// unknown or the space is too large.
func (t *tester) refTestPolynomial(A, B *Access, ca, cb *iv.Classification) ([]*Dependence, bool) {
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
	for h1 := int64(0); h1 <= *ubA; h1++ {
		v1, ok1 := ca.PolyEval(h1)
		if !ok1 {
			return nil, false
		}
		for h2 := int64(0); h2 <= *ubB; h2++ {
			v2, ok2 := cb.PolyEval(h2)
			if !ok2 {
				return nil, false
			}
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
