package beyondiv

import (
	"fmt"
	"strings"
	"testing"

	"beyondiv/internal/depend"
	"beyondiv/internal/obs"
)

// These tests pin the overflow-degradation contract: when exact
// analysis arithmetic would overflow int64, the analysis degrades to
// "don't know" (bottom / unknown / assume dependence) and counts the
// event — it never reports a silently wrapped constant, trip count, or
// independence verdict. The interpreter is the oracle: execution uses
// wrapping two's-complement semantics, so any constant the analysis
// *does* claim must match what a run produces.

// TestOverflowExpNotFolded: 7**99 overflows int64, so constant
// propagation must refuse to fold it — while the interpreter still
// computes the wrapped value quickly (square-and-multiply, not a
// 99-step loop; larger exponents are equally cheap).
func TestOverflowExpNotFolded(t *testing.T) {
	rec := obs.New()
	p, err := AnalyzeWith("k = 7 ** 99\n", Options{Obs: rec})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if n := rec.Counter("sccp.fold.overflow"); n == 0 {
		t.Errorf("sccp.fold.overflow = 0, want the refused fold counted")
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := uint64(1)
	for i := 0; i < 99; i++ {
		want *= 7
	}
	if got := res.Scalars["k"]; got != int64(want) {
		t.Errorf("interp k = %d, want wrapped %d", got, int64(want))
	}
}

// TestOverflowPolynomialSum: a linear recurrence whose running sum
// overflows int64 mid-loop. The analysis must finish without claiming
// wrong constants, and the interpreter's write trace is the wrapping
// ground truth the test checks against.
func TestOverflowPolynomialSum(t *testing.T) {
	const step = int64(4611686018427387904) // 2^62; wraps on the 2nd add
	src := `
s = 0
L1: for i = 1 to 5 {
    s = s + 4611686018427387904
    a[i] = s
}
`
	rec := obs.New()
	p, err := AnalyzeWith(src, Options{Obs: rec})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Writes) != 5 {
		t.Fatalf("got %d writes, want 5", len(res.Writes))
	}
	sum := uint64(0)
	for i, w := range res.Writes {
		sum += uint64(step)
		if w.Index != int64(i+1) || w.Value != int64(sum) {
			t.Errorf("write %d = a[%d]=%d, want a[%d]=%d", i, w.Index, w.Value, i+1, int64(sum))
		}
	}
}

// TestOverflowTripCountNotClaimed: bounds whose iteration count
// exceeds int64 (here MaxInt64 + 1) must not yield a wrapped constant
// trip count; unknown or symbolic is the only sound answer.
func TestOverflowTripCountNotClaimed(t *testing.T) {
	src := "L1: for i = 0 to 9223372036854775807 { s = s + 1 }\n"
	p, err := AnalyzeWith(src, Options{SkipDependences: true})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(p.Loops.Roots) != 1 {
		t.Fatalf("got %d loops, want 1", len(p.Loops.Roots))
	}
	tc := p.IV.TripCount(p.Loops.Roots[0])
	if tc == nil || tc.Expr == nil {
		return // unknown: sound
	}
	if c, ok := tc.Expr.ConstVal(); ok {
		t.Errorf("claimed constant trip count %v for a 2^63-iteration loop", c)
	}
}

// TestOverflowDependenceNotIndependent: subscript coefficients large
// enough to overflow the dependence-equation arithmetic (Banerjee
// bounds and exact-enumeration sums both leave int64 here) must
// degrade to "assume dependence", never to a false independence
// proof. The references do alias: 2^62·h = 2^61·h' has solutions
// h' = 2h inside the bounds, so independence would be a lie. The gcd
// test cannot settle it (gcd 2^61 divides the rhs 0), forcing the
// tester through the checked interval/exact paths.
func TestOverflowDependenceNotIndependent(t *testing.T) {
	src := `
L1: for i = 1 to 10 {
    a[4611686018427387904 * i] = a[2305843009213693952 * i]
}
`
	p, err := AnalyzeWith(src, Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	// The write's pairing with itself is proven independent by exact
	// same-coefficient reasoning (distance must be 0, i.e. the same
	// iteration) — that involves no overflow and stays sound. The
	// write↔read pair is the one whose disproof would overflow; it must
	// be reported as a dependence.
	var cross *depend.Dependence
	for _, d := range p.Deps.Deps {
		if d.Src.Write != d.Dst.Write {
			cross = d
		}
	}
	if cross == nil {
		t.Fatalf("write↔read pair not reported dependent under overflowing coefficients; report:\n%s",
			p.DependenceReport())
	}
	if p.Deps.Independent > 1 {
		t.Errorf("claimed %d independent pairs, at most the self-pair (1) is provable", p.Deps.Independent)
	}
}

// TestOverflowDirectionCountDeepNest: the affine test tries all 3^d
// direction vectors of a d-deep common nest, one budget step each. At
// d = 40, 3^40 leaves int64 (a wrapped count once tested no direction
// and proved both pairs independent); at d = 39 it fits but no step
// budget pays for it (the run once went past two minutes). Both must
// answer at once with the conservative assumed dependences.
func TestOverflowDirectionCountDeepNest(t *testing.T) {
	for _, depth := range []int{39, 40} {
		var sb strings.Builder
		for k := 1; k <= depth; k++ {
			fmt.Fprintf(&sb, "for i%d = 1 to 2 {\n", k)
		}
		fmt.Fprintf(&sb, "a[i%d] = a[i%d - 1] + 1\n", depth, depth)
		sb.WriteString(strings.Repeat("}\n", depth))
		p, err := AnalyzeWith(sb.String(), Options{})
		if err != nil {
			t.Fatalf("depth %d: Analyze: %v", depth, err)
		}
		if p.Deps.Independent != 0 || len(p.Deps.Deps) == 0 {
			t.Fatalf("depth %d: %d pairs proven independent; report:\n%s",
				depth, p.Deps.Independent, p.DependenceReport())
		}
		for _, d := range p.Deps.Deps {
			if d.Method != "assumed" {
				t.Errorf("depth %d: %s, want every dependence assumed", depth, d)
			}
		}
	}
}
