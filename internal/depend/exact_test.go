package depend

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"beyondiv/internal/iv"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
	"beyondiv/internal/safemath"
)

// The differential tests hold the exact walker (exact.go) to the
// reference enumerators (exact_ref_test.go): the same verdict, applied
// flag, method, distance vector and uniqueness on every equation the
// workloads build and on random ones, and the same testPolynomial
// output on every closed-form pair.

// checkSolve compares the walker with the reference enumerators on one
// equation under one direction vector and set of residue constraints.
func checkSolve(t *testing.T, tr *tester, eq *equation, psi []Dir, mods []modConstraint) {
	t.Helper()
	got, want := *eq, *eq
	gotOK, gotApplied := tr.exactSolve(&got, psi, mods)
	var wantOK, wantApplied bool
	if mods == nil {
		wantOK, wantApplied = tr.refExactFeasible(&want, psi)
	} else {
		wantOK, wantApplied = tr.refExactFeasibleMods(&want, psi, mods)
		want.method = got.method // the reference never named a method here
	}
	if gotOK != wantOK || gotApplied != wantApplied || got.method != want.method {
		t.Fatalf("%s psi %v mods %v: walker (%v, applied %v, %q), reference (%v, applied %v, %q)",
			fmtEquation(eq), psi, mods, gotOK, gotApplied, got.method, wantOK, wantApplied, want.method)
	}
}

// checkDistance compares the walker's distance vector and uniqueness
// with the reference's.
func checkDistance(t *testing.T, tr *tester, eq *equation) {
	t.Helper()
	gotDist, gotUnique := tr.exactDistance(eq)
	wantDist, wantUnique := tr.refExactDistance(eq)
	if gotUnique != wantUnique || gotUnique && !slices.Equal(gotDist, wantDist) {
		t.Fatalf("%s: walker distance %v (unique %v), reference %v (unique %v)",
			fmtEquation(eq), gotDist, gotUnique, wantDist, wantUnique)
	}
}

func fmtEquation(eq *equation) string {
	bound := func(p *int64) string {
		if p == nil {
			return "nil"
		}
		return fmt.Sprint(*p)
	}
	var sb strings.Builder
	for i := range eq.ca {
		fmt.Fprintf(&sb, "%d·a%d[0,%s] - %d·b%d[0,%s] + ", eq.ca[i], i, bound(eq.ubA[i]), eq.cb[i], i, bound(eq.ubB[i]))
	}
	for i, s := range eq.solos {
		fmt.Fprintf(&sb, "%d·s%d[%s,%s] + ", s.coeff, i, bound(s.lo), bound(s.hi))
	}
	fmt.Fprintf(&sb, "0 = %d", eq.rhs)
	return sb.String()
}

// directions returns every vector of {<, =, >}^d.
func directions(d int) [][]Dir {
	out := [][]Dir{{}}
	for i := 0; i < d; i++ {
		var next [][]Dir
		for _, p := range out {
			for _, dir := range []Dir{DirLT, DirEQ, DirGT} {
				next = append(next, append(slices.Clone(p), dir))
			}
		}
		out = next
	}
	return out
}

// slotCases mirrors feasibleWithSlots: one (equation, residue
// constraints) case per choice of ring slot for every periodic term.
func slotCases(eq *equation) (subs []*equation, mods [][]modConstraint) {
	slots := make([]int, len(eq.per))
	var rec func(k int)
	rec = func(k int) {
		if k == len(eq.per) {
			adj := eq.rhs
			var ms []modConstraint
			for i, pe := range eq.per {
				c := pe.contrib[slots[i]]
				var ok bool
				if pe.side == 0 {
					adj, ok = safemath.Sub(adj, c)
				} else {
					adj, ok = safemath.Add(adj, c)
				}
				if !ok {
					return
				}
				r := ((pe.phase-slots[i])%pe.p + pe.p) % pe.p
				ms = append(ms, modConstraint{dim: pe.dim, side: pe.side, residue: r, p: pe.p})
			}
			sub := *eq
			sub.per = nil
			sub.rhs = adj
			subs, mods = append(subs, &sub), append(mods, ms)
			return
		}
		for v := 0; v < eq.per[k].p; v++ {
			slots[k] = v
			rec(k + 1)
		}
	}
	rec(0)
	return subs, mods
}

// harvestSources is every program the differential test builds
// equations from: the paper corpus, the examples, the corpus and
// optimize benchmark nests, and the parallel tier's Large(24).
func harvestSources(t *testing.T) []string {
	var srcs []string
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// Every raw literal assigned in the file is a program.
		for rest := string(b); ; {
			i := strings.Index(rest, "= `")
			if i < 0 {
				break
			}
			rest = rest[i+3:]
			j := strings.IndexByte(rest, '`')
			srcs = append(srcs, rest[:j])
			rest = rest[j+1:]
		}
	}
	for k := int64(0); k < 96; k++ {
		srcs = append(srcs, progen.DepWorkload(k))
	}
	for k := int64(0); k < 200; k++ {
		srcs = append(srcs, progen.DepWorkload(1<<32+k))
	}
	return append(srcs, progen.Large(24))
}

// TestExactWalkerMatchesReference builds the dependence equation of
// every access pair (reads included) of every harvested program and
// compares the walker with the reference enumerators under all 3^d
// direction vectors, and under every ring-slot residue constraint when
// the equation has periodic terms; closed-form pairs of one loop also
// compare testPolynomial with its reference.
func TestExactWalkerMatchesReference(t *testing.T) {
	var equations, solves, polys int
	for _, src := range harvestSources(t) {
		a, err := iv.AnalyzeProgram(src)
		if err != nil {
			t.Fatalf("analyze: %v\n%s", err, src)
		}
		r := &Result{Analysis: a}
		r.collectAccesses()
		tr := &tester{a: a, scr: &dependScratch{}}
		for i, A := range r.Accesses {
			for _, B := range r.Accesses[i:] {
				if A.Array != B.Array {
					continue
				}
				tr.subscriptClass(A)
				tr.subscriptClass(B)
				clsA, clsB := A.unwrapped, B.unwrapped
				if A.Loop != nil && A.Loop == B.Loop && hasClosedForm(clsA) && hasClosedForm(clsB) {
					polys++
					got, gotDone := tr.testPolynomial(A, B, clsA, clsB)
					want, wantDone := tr.refTestPolynomial(A, B, clsA, clsB)
					if gotDone != wantDone || fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("testPolynomial %s vs %s: got %v (done %v), reference %v (done %v)",
							A, B, got, gotDone, want, wantDone)
					}
				}
				fa, fb := tr.formOf(A, clsA), tr.formOf(B, clsB)
				if fa == nil || fb == nil {
					continue
				}
				eq, ok := tr.buildEquation(A, B, fa, fb, commonLoops(A, B))
				if !ok {
					continue
				}
				equations++
				checkDistance(t, tr, eq)
				subs, mods := slotCases(eq)
				if len(eq.per) == 0 {
					subs, mods = []*equation{eq}, [][]modConstraint{nil}
				}
				for _, psi := range directions(len(eq.ca)) {
					for k := range subs {
						checkSolve(t, tr, subs[k], psi, mods[k])
						solves++
					}
				}
			}
		}
	}
	if equations < 1000 || polys == 0 {
		t.Fatalf("harvest too thin: %d equations, %d polynomial pairs", equations, polys)
	}
	t.Logf("%d equations, %d solves, %d polynomial pairs", equations, solves, polys)
}

// exactCase decodes one equation, direction vector, residue constraints
// and exact ceiling from bytes (missing bytes read as zero): up to
// three common dimensions and three solos, zero and negative
// coefficients, coefficients near MaxInt64/ub, empty dimensions
// (ub = −1), unbounded variables, and right-hand sides near ±2^63 or
// planted at a point of the box. Every value is bounded, and no solo
// bound reaches MaxInt64 (the reference's v++ loop never ends there).
func exactCase(data []byte) (eq *equation, psi []Dir, mods []modConstraint, maxExact int) {
	return decodeCase(byteStream(data))
}

// byteStream hands out data's bytes in order, then zeros.
func byteStream(data []byte) func() int {
	return func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
}

// decodeCase is exactCase reading from a byte stream, so a caller can
// decode more fields after the case.
func decodeCase(next func() int) (eq *equation, psi []Dir, mods []modConstraint, maxExact int) {
	pick := func(n int) int { return next() % n }
	// One draw in eight takes the large or extreme table.
	small := []int64{0, 1, -1, 2, -2, 3, -3, 5, -7}
	large := []int64{1 << 40, -(1 << 40), safemath.MaxInt64 / 8, -(safemath.MaxInt64 / 8),
		safemath.MaxInt64 / 64, safemath.MaxInt64 / 3, safemath.MinInt64, safemath.MaxInt64}
	coeff := func() int64 {
		if pick(8) == 0 {
			return large[pick(len(large))]
		}
		return small[pick(len(small))]
	}
	ptr := func(v int64) *int64 { return &v }
	ub := func() *int64 {
		switch pick(24) {
		case 0:
			return nil
		case 1, 2:
			return ptr(-1)
		}
		return ptr([]int64{0, 1, 2, 3, 5, 8}[pick(6)])
	}

	maxExact = []int{64, 512, 4096, 1 << 16}[pick(4)]
	nd, ns := pick(4), pick(4)
	eq = &equation{}
	for i := 0; i < nd; i++ {
		eq.ca = append(eq.ca, coeff())
		eq.cb = append(eq.cb, coeff())
		eq.ubA = append(eq.ubA, ub())
		eq.ubB = append(eq.ubB, ub())
	}
	for i := 0; i < ns; i++ {
		v := variable{coeff: coeff()}
		if pick(10) != 0 {
			lo := []int64{0, -3, 2}[pick(3)]
			if pick(8) == 0 {
				lo = []int64{1 << 40, safemath.MaxInt64 - 5, safemath.MinInt64, safemath.MinInt64 + 3}[pick(4)]
			}
			hi, ok := safemath.Add(lo, int64(pick(8)-1))
			if !ok {
				hi = lo
			}
			v.lo, v.hi = ptr(lo), ptr(min(hi, safemath.MaxInt64-1))
		}
		eq.solos = append(eq.solos, v)
	}

	switch pick(6) {
	case 0:
		eq.rhs = int64(pick(21) - 10)
	case 1:
		eq.rhs = safemath.MaxInt64 - int64(pick(4))
	case 2:
		eq.rhs = safemath.MinInt64 + int64(pick(4))
	default:
		eq.rhs = plantedRHS(eq, pick)
	}
	for i := 0; i < nd; i++ {
		psi = append(psi, []Dir{DirLT, DirEQ, DirGT}[pick(3)])
	}
	if nd > 0 {
		for k := pick(3); k > 0; k-- {
			p := 2 + pick(3)
			mods = append(mods, modConstraint{dim: pick(nd), side: pick(2), residue: pick(p), p: p})
		}
	}
	return eq, psi, mods, maxExact
}

// plantedRHS returns the equation's left-hand side at a point drawn
// from its box, so the case has a solution, or a small constant when
// the box is empty or unbounded or the sum leaves int64.
func plantedRHS(eq *equation, pick func(int) int) int64 {
	sum := new(big.Int)
	term := func(c int64, lo, hi *int64) bool {
		if lo == nil || hi == nil || *hi < *lo {
			return false
		}
		x := *lo + int64(pick(int(*hi-*lo)+1))
		sum.Add(sum, new(big.Int).Mul(big.NewInt(c), big.NewInt(x)))
		return true
	}
	zero := int64(0)
	for i := range eq.ca {
		if !term(eq.ca[i], &zero, eq.ubA[i]) || !term(-eq.cb[i], &zero, eq.ubB[i]) {
			return 1
		}
	}
	for _, s := range eq.solos {
		if !term(s.coeff, s.lo, s.hi) {
			return 1
		}
	}
	if !sum.IsInt64() {
		return 1
	}
	return sum.Int64()
}

// exactSeeds are the random cases: byte strings long enough to fill
// every field exactCase reads.
func exactSeeds(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 96)
		rng.Read(out[i])
	}
	return out
}

func checkCase(t *testing.T, data []byte) {
	t.Helper()
	eq, psi, mods, maxExact := exactCase(data)
	tr := &tester{opts: Options{MaxExact: maxExact}, scr: &dependScratch{}}
	checkSolve(t, tr, eq, psi, nil)
	if mods != nil {
		checkSolve(t, tr, eq, psi, mods)
	}
	checkDistance(t, tr, eq)
}

// TestExactWalkerRandom compares the walker with the reference
// enumerators on random equations, and checks that enough of them walk
// a non-empty box and have solutions for the comparison to mean much.
func TestExactWalkerRandom(t *testing.T) {
	walked, solved := 0, 0
	for _, data := range exactSeeds(10000) {
		checkCase(t, data)
		eq, psi, _, maxExact := exactCase(data)
		tr := &tester{opts: Options{MaxExact: maxExact}, scr: &dependScratch{}}
		if size, ok := tr.boxSize(eq); ok && size > 0 && sumBoundOK(eq) {
			walked++
			if found, _ := tr.exactSolve(eq, psi, nil); found {
				solved++
			}
		}
	}
	if walked < 3000 || solved < 1000 {
		t.Fatalf("%d of 10000 random cases walked a box, %d had a solution", walked, solved)
	}
	t.Logf("%d of 10000 random cases walked a box, %d had a solution", walked, solved)
}

// FuzzExactSolve drives the same comparison from fuzzed bytes.
func FuzzExactSolve(f *testing.F) {
	for _, data := range exactSeeds(64) {
		f.Add(data)
	}
	f.Fuzz(checkCase)
}
