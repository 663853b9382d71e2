// Package progen generates mini-language programs: random structured
// programs for parser/SSA fuzzing, and parameterized synthetic workloads
// for the scaling and unified-vs-classical benchmarks (experiments E16 and
// E17 in DESIGN.md).
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Gen generates random programs. The zero value is not usable; call New.
type Gen struct {
	maxDepth int
	maxStmts int
}

// New returns a generator with sensible defaults for fuzzing.
func New() *Gen {
	return &Gen{maxDepth: 3, maxStmts: 5}
}

var scalars = []string{"i", "j", "k", "l", "m", "n", "t", "x", "y"}
var arrays = []string{"a", "b", "c"}

// Program produces a random structured program from seed. Programs are
// always syntactically valid; variables may be used before definition
// (they are then loop-invariant parameters).
func (g *Gen) Program(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	n := 1 + rng.Intn(g.maxStmts)
	for i := 0; i < n; i++ {
		g.stmt(&sb, rng, 0, false)
	}
	return sb.String()
}

func (g *Gen) stmt(sb *strings.Builder, rng *rand.Rand, depth int, inLoop bool) {
	ind := strings.Repeat("    ", depth)
	choice := rng.Intn(10)
	if depth >= g.maxDepth {
		choice = rng.Intn(3) // assignments only
	}
	switch {
	case choice < 3: // scalar assignment
		fmt.Fprintf(sb, "%s%s = %s\n", ind, g.scalar(rng), g.expr(rng, 0))
	case choice < 4: // array assignment
		fmt.Fprintf(sb, "%s%s[%s] = %s\n", ind, g.array(rng), g.expr(rng, 1), g.expr(rng, 0))
	case choice < 6: // for loop
		fmt.Fprintf(sb, "%sfor %s = %s to %s {\n", ind, g.scalar(rng), g.expr(rng, 1), g.expr(rng, 1))
		g.body(sb, rng, depth+1, true)
		fmt.Fprintf(sb, "%s}\n", ind)
	case choice < 7: // while loop
		fmt.Fprintf(sb, "%swhile %s < %s {\n", ind, g.scalar(rng), g.expr(rng, 1))
		g.body(sb, rng, depth+1, true)
		fmt.Fprintf(sb, "%s}\n", ind)
	case choice < 8 && inLoop: // loop with guaranteed exit
		fmt.Fprintf(sb, "%sloop {\n", ind)
		g.body(sb, rng, depth+1, true)
		fmt.Fprintf(sb, "%s    if %s > %s { exit }\n", ind, g.scalar(rng), g.expr(rng, 1))
		fmt.Fprintf(sb, "%s}\n", ind)
	default: // if / if-else
		fmt.Fprintf(sb, "%sif %s %s %s {\n", ind, g.expr(rng, 1), relop(rng), g.expr(rng, 1))
		g.body(sb, rng, depth+1, inLoop)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(sb, "%s} else {\n", ind)
			g.body(sb, rng, depth+1, inLoop)
		}
		fmt.Fprintf(sb, "%s}\n", ind)
	}
}

func (g *Gen) body(sb *strings.Builder, rng *rand.Rand, depth int, inLoop bool) {
	n := 1 + rng.Intn(g.maxStmts)
	for i := 0; i < n; i++ {
		g.stmt(sb, rng, depth, inLoop)
	}
}

func (g *Gen) scalar(rng *rand.Rand) string { return scalars[rng.Intn(len(scalars))] }
func (g *Gen) array(rng *rand.Rand) string  { return arrays[rng.Intn(len(arrays))] }

func relop(rng *rand.Rand) string {
	return []string{"<", "<=", ">", ">=", "==", "!="}[rng.Intn(6)]
}

// expr builds a random arithmetic expression; depth>0 keeps it small.
func (g *Gen) expr(rng *rand.Rand, depth int) string {
	if depth > 1 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return fmt.Sprint(rng.Intn(20) + 1)
		}
		return g.scalar(rng)
	}
	op := []string{"+", "-", "*"}[rng.Intn(3)]
	return fmt.Sprintf("%s %s %s", g.expr(rng, depth+1), op, g.expr(rng, depth+1))
}

// ---- Synthetic benchmark workloads ----

// StraightLineLoop returns a single loop containing n linear-IV update
// statements over n distinct variables, used for the linearity scaling
// experiment (E16): the SSA graph grows linearly with n.
func StraightLineLoop(n int) string {
	var sb strings.Builder
	for v := 0; v < n; v++ {
		fmt.Fprintf(&sb, "v%d = %d\n", v, v)
	}
	sb.WriteString("for i = 1 to n {\n")
	for v := 0; v < n; v++ {
		fmt.Fprintf(&sb, "    v%d = v%d + %d\n", v, v, v%7+1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// MutualChain returns a loop with a chain of k mutually-defined linear
// induction variables (the paper's L2 pattern generalized): v0 feeds v1
// feeds ... feeds v_{k-1} feeds v0.
func MutualChain(k int) string {
	var sb strings.Builder
	for v := 0; v < k; v++ {
		fmt.Fprintf(&sb, "v%d = %d\n", v, v)
	}
	sb.WriteString("for i = 1 to n {\n")
	for v := 0; v < k; v++ {
		fmt.Fprintf(&sb, "    v%d = v%d + %d\n", (v+1)%k, v, v+1)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// MixedClasses returns a loop exercising every classification class:
// linear, polynomial, geometric, wrap-around, periodic, and monotonic,
// replicated reps times over distinct variable groups.
func MixedClasses(reps int) string {
	var sb strings.Builder
	for r := 0; r < reps; r++ {
		fmt.Fprintf(&sb, "li%d = 0\npj%d = 1\npk%d = 1\nge%d = 1\nwa%d = n\npa%d = 1\npb%d = 2\nmo%d = 0\n",
			r, r, r, r, r, r, r, r)
	}
	sb.WriteString("for i = 1 to n {\n")
	for r := 0; r < reps; r++ {
		fmt.Fprintf(&sb, "    li%d = li%d + 3\n", r, r)           // linear
		fmt.Fprintf(&sb, "    pj%d = pj%d + i\n", r, r)           // quadratic
		fmt.Fprintf(&sb, "    pk%d = pk%d + pj%d + 1\n", r, r, r) // cubic
		fmt.Fprintf(&sb, "    ge%d = ge%d * 2 + 1\n", r, r)       // geometric
		fmt.Fprintf(&sb, "    x%d = a[wa%d]\n", r, r)             // use of wrap-around
		fmt.Fprintf(&sb, "    wa%d = i\n", r)                     // wrap-around
		fmt.Fprintf(&sb, "    t%d = pa%d\n", r, r)                // periodic swap
		fmt.Fprintf(&sb, "    pa%d = pb%d\n", r, r)
		fmt.Fprintf(&sb, "    pb%d = t%d\n", r, r)
		fmt.Fprintf(&sb, "    if a[i] > 0 {\n        mo%d = mo%d + 1\n    } else {\n        mo%d = mo%d + 2\n    }\n",
			r, r, r, r) // monotonic
	}
	sb.WriteString("}\n")
	return sb.String()
}

// NestedLoops returns a nest of the given depth where each level's
// variable accumulates into a shared counter, producing a polynomial
// of order depth (triangular-style nesting, generalizing Figure 9).
func NestedLoops(depth int) string {
	var sb strings.Builder
	sb.WriteString("s = 0\n")
	for d := 0; d < depth; d++ {
		ind := strings.Repeat("    ", d)
		bound := "n"
		if d > 0 {
			bound = fmt.Sprintf("i%d", d-1)
		}
		fmt.Fprintf(&sb, "%sfor i%d = 1 to %s {\n", ind, d, bound)
	}
	ind := strings.Repeat("    ", depth)
	fmt.Fprintf(&sb, "%ss = s + 1\n", ind)
	for d := depth - 1; d >= 0; d-- {
		fmt.Fprintf(&sb, "%s}\n", strings.Repeat("    ", d))
	}
	return sb.String()
}

// DerivedChain returns a loop with a chain of k derived induction
// variables where each link is defined before (alphabetically and
// textually) the variable it derives from: w000 = w001 + 1, ...,
// w<k-1> = 2*z + 1. A classical scan in name order discovers exactly
// one link per fixpoint round, so the baseline needs k rounds (O(k²)
// work) while the SSA classifier handles the chain in its single pass —
// the paper's iterative-vs-one-pass claim made measurable (E17).
func DerivedChain(k int) string {
	var sb strings.Builder
	sb.WriteString("for z = 1 to n {\n")
	for i := 0; i < k-1; i++ {
		fmt.Fprintf(&sb, "    w%03d = w%03d + 1\n", i, i+1)
	}
	fmt.Fprintf(&sb, "    w%03d = 2 * z + 1\n", k-1)
	sb.WriteString("    b[w000] = z\n}\n")
	return sb.String()
}

// Large returns a program with n independent top-level loops — the
// parallel tier's benchmark shape. Each loop carries its own linear,
// derived and polynomial induction variables plus eight affine
// subscripted accesses to a loop-private array (~26 testable pairs per
// loop), so the work scales with n: the classifier sees n independent
// loops and the dependence tester's fan-out ~26·n pairs, with no work
// shared between loops.
func Large(n int) string {
	var sb strings.Builder
	for r := 0; r < n; r++ {
		fmt.Fprintf(&sb, "s%d = 0\nq%d = 1\n", r, r)
		fmt.Fprintf(&sb, "L%d: for i%d = 1 to 100 {\n", r, r)
		fmt.Fprintf(&sb, "    s%d = s%d + 2\n", r, r)           // linear
		fmt.Fprintf(&sb, "    d%d = 3 * i%d + %d\n", r, r, r%5) // derived linear
		fmt.Fprintf(&sb, "    q%d = q%d + i%d\n", r, r, r)      // quadratic
		fmt.Fprintf(&sb, "    a%d[i%d] = a%d[i%d + 1] + 1\n", r, r, r, r)
		fmt.Fprintf(&sb, "    a%d[2 * i%d] = a%d[2 * i%d + 3] + 1\n", r, r, r, r)
		fmt.Fprintf(&sb, "    a%d[d%d] = a%d[s%d] + 1\n", r, r, r, r)
		fmt.Fprintf(&sb, "    a%d[3 * i%d + 1] = a%d[q%d] + 1\n", r, r, r, r)
		sb.WriteString("}\n")
	}
	return sb.String()
}

// DepWorkload generates a loop nest whose subscripts exercise the
// dependence tester's decision paths: affine strides and offsets,
// wrap-around indices, periodic selectors, monotonic pack indices, and
// polynomial accumulators, drawn deterministically from seed.
func DepWorkload(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder

	// Optional prologue state.
	sb.WriteString("p = 1\nq = 2\nw = 0\nacc = 0\nprev = 9\n")

	bound := 6 + rng.Intn(20)
	nest := rng.Intn(2) == 0
	fmt.Fprintf(&sb, "L1: for i = 1 to %d {\n", bound)
	indent := "    "
	inner := ""
	if nest {
		innerBound := 3 + rng.Intn(6)
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&sb, "    L2: for j = 1 to %d {\n", innerBound)
		} else {
			sb.WriteString("    L2: for j = 1 to i {\n")
		}
		indent = "        "
		inner = "j"
	}

	sub := func() string {
		base := []string{"i", "i", "2 * i", "3 * i", "acc", "w", "p", "prev"}[rng.Intn(8)]
		if inner != "" && rng.Intn(2) == 0 {
			base = fmt.Sprintf("%d * i + j", 4+rng.Intn(8))
		}
		off := rng.Intn(7) - 3
		if off == 0 {
			return base
		}
		return fmt.Sprintf("%s + %d", base, off)
	}
	stmts := 1 + rng.Intn(3)
	for k := 0; k < stmts; k++ {
		fmt.Fprintf(&sb, "%sa[%s] = a[%s] + 1\n", indent, sub(), sub())
	}
	if inner != "" {
		sb.WriteString("    }\n")
	}
	// Update the interesting scalars at the outer level.
	sb.WriteString("    acc = acc + i\n")
	sb.WriteString("    prev = i\n")
	sb.WriteString("    if a[i] > 0 {\n        w = w + 1\n        b[w] = i\n    }\n")
	sb.WriteString("    t = p\n    p = q\n    q = t\n")
	sb.WriteString("}\n")
	return sb.String()
}
