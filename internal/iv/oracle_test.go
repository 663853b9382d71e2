package iv

import (
	"testing"
	"testing/quick"

	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/progen"
	"beyondiv/internal/rational"
)

// The dynamic oracle: execute the SSA function while tracking, for each
// loop, the current iteration number h and execution epoch (re-entries
// from an enclosing loop). Every classification makes a checkable
// prediction:
//
//	invariant   value == Expr(current env)
//	linear      value == Init(env) + h·Step(env)
//	polynomial  value == Σ coeffs·h^k               (numeric forms)
//	geometric   value == Σ coeffs·h^k + g·b^h
//	periodic    value == Initials[(phase-h) mod p](env)
//	wrap-around value == Init(env) at h < order, Inner(h-order) after
//	monotonic   values within one epoch never move the wrong way
//
// Any violated prediction is a classifier bug.

type oracleChecker struct {
	t        *testing.T
	a        *Analysis
	src      string
	seed     int64
	curVals  map[*ir.Value]int64
	iter     map[*loops.Loop]int64
	epoch    map[*loops.Loop]int64
	lastMono map[*ir.Value]monoSeen
	failed   bool
}

type monoSeen struct {
	epoch int64
	val   int64
}

func newOracle(t *testing.T, a *Analysis, src string, seed int64) *oracleChecker {
	return &oracleChecker{
		t: t, a: a, src: src, seed: seed,
		curVals:  map[*ir.Value]int64{},
		iter:     map[*loops.Loop]int64{},
		epoch:    map[*loops.Loop]int64{},
		lastMono: map[*ir.Value]monoSeen{},
	}
}

func (o *oracleChecker) errf(format string, args ...any) {
	if !o.failed {
		o.t.Logf("oracle failure (seed %d) in program:\n%s", o.seed, o.src)
	}
	o.failed = true
	o.t.Errorf(format, args...)
}

func (o *oracleChecker) onBlock(b *ir.Block) {
	for _, l := range o.a.Forest.Loops {
		if l.Header == b {
			o.iter[l]++
		}
		if l.Preheader() == b {
			o.iter[l] = -1
			o.epoch[l]++
		}
	}
}

// evalExpr evaluates an affine Expr against current runtime values.
func (o *oracleChecker) evalExpr(e *Expr) (rational.Rat, bool) {
	return e.Eval(func(v *ir.Value) (int64, bool) {
		x, ok := o.curVals[v]
		return x, ok
	})
}

// predict returns the predicted value of classification c at iteration
// h, when a prediction is possible.
func (o *oracleChecker) predict(c *Classification, h int64) (rational.Rat, bool) {
	switch c.Kind {
	case Invariant:
		if c.Expr == nil {
			return rational.NaR, false
		}
		return o.evalExpr(c.Expr)
	case Linear:
		init, ok1 := o.evalExpr(c.Init)
		step, ok2 := o.evalExpr(c.Step)
		if !ok1 || !ok2 {
			return rational.NaR, false
		}
		return init.Add(step.Mul(rational.FromInt(h))), true
	case Polynomial, Geometric:
		return c.PolyEval(h)
	case Periodic:
		if len(c.Initials) != c.Period {
			return rational.NaR, false
		}
		idx := int(((int64(c.Phase)-h)%int64(c.Period) + int64(c.Period)) % int64(c.Period))
		if c.Initials[idx] == nil {
			return rational.NaR, false
		}
		return o.evalExpr(c.Initials[idx])
	case WrapAround:
		if h < int64(c.Order) {
			if h == 0 {
				return o.evalExpr(c.Init)
			}
			return rational.NaR, false // intermediate warm-up values untracked
		}
		return o.predict(c.Inner, h-int64(c.Order))
	}
	return rational.NaR, false
}

func (o *oracleChecker) onEval(v *ir.Value, val int64) {
	o.curVals[v] = val
	l := o.a.Forest.InnermostContaining(v.Block)
	if l == nil {
		return
	}
	cls := o.a.LoopClassifications(l)[v]
	if cls == nil {
		return
	}
	h := o.iter[l]
	if h < 0 {
		return
	}
	if cls.Kind == Monotonic {
		// Guard against int64 wraparound (e.g. repeated squaring): the
		// classification is exact arithmetic, the interpreter wraps.
		if val > 1<<31 || val < -(1<<31) {
			delete(o.lastMono, v)
			return
		}
		seen, ok := o.lastMono[v]
		if ok && seen.epoch == o.epoch[l] {
			diff := val - seen.val
			if cls.Dir > 0 && diff < 0 {
				o.errf("%s: monotonic increasing but %d -> %d", v, seen.val, val)
			}
			if cls.Dir < 0 && diff > 0 {
				o.errf("%s: monotonic decreasing but %d -> %d", v, seen.val, val)
			}
			if cls.Strict && diff == 0 {
				o.errf("%s: strictly monotonic but repeated %d", v, val)
			}
		}
		o.lastMono[v] = monoSeen{epoch: o.epoch[l], val: val}
		return
	}
	want, ok := o.predict(cls, h)
	if !ok || !want.Valid() {
		return
	}
	// Skip near-overflow predictions: the interpreter wraps, rationals
	// do not.
	if !want.IsInt() {
		o.errf("%s at h=%d: predicted non-integer %s (class %s)", v, h, want, cls)
		return
	}
	w, _ := want.Int()
	if w > 1<<60 || w < -(1<<60) {
		return
	}
	if w != val {
		o.errf("%s at h=%d: predicted %d (class %s), executed %d", v, h, w, cls, val)
	}
}

// runOracle analyzes and executes one program under the oracle.
func runOracle(t *testing.T, src string, seed int64, params map[string]int64) {
	t.Helper()
	a, err := AnalyzeProgram(src)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	o := newOracle(t, a, src, seed)
	cfg := interp.Config{Params: params, MaxSteps: 300_000}
	_, err = interp.RunSSAHooked(a.SSA, cfg, interp.Hooks{OnBlock: o.onBlock, OnEval: o.onEval})
	if err != nil && err != interp.ErrStepLimit {
		t.Fatalf("run: %v", err)
	}
}

var oracleParams = map[string]int64{
	"n": 13, "m": 57, "c": 3, "k": 2, "i0": 5, "x": 7, "y": -2,
	"i": 1, "j": 2, "l": 4, "t": 6,
}

// TestOracleOnPaperCorpus runs the oracle over every program from the
// paper's figures.
func TestOracleOnPaperCorpus(t *testing.T) {
	corpus := []string{
		// L1, L2 basics.
		"i = i0\nL1: loop { i = i + k\nif i > n { exit } }",
		"j = n\nL2: loop { i = j + c\nj = i + k\nif j > m { exit } }",
		// Figure 3.
		"i = 1\nL8: loop { if a[i] > 0 { i = i + 2 } else { i = i + 2 }\nif i > n { exit } }",
		// Figure 4 wrap-arounds.
		"j = n\nk = n\ni = 1\nL10: loop { a[k] = a[j] + 1\nk = j\nj = i\ni = i + 1\nif i > m { exit } }",
		// Figure 5 rotation.
		"j = 1\nk = 2\nl = 3\nL13: for it = 1 to n { t = j\nj = k\nk = l\nl = t\na[j] = a[k] + a[l] }",
		// Flip-flops.
		"j = 1\njold = 2\nL11: for it = 1 to n { a[j] = a[jold]\njtemp = jold\njold = j\nj = jtemp }",
		"j = 1\njold = 2\nL12: for it = 1 to n { a[j] = a[jold]\nj = 3 - j\njold = 3 - jold }",
		// L14 closed forms.
		"j = 1\nk = 1\nl = 1\nm = 0\nL14: for i = 1 to 12 { j = j + i\nk = k + j + 1\nl = l * 2 + 1\nm = 3 * m + 2 * i + 1 }",
		// Monotonics.
		"k = 0\nL15: for i = 1 to n { if a[i] > 0 { k = k + 1\nb[k] = a[i] } }",
		"k = 0\nL16: loop { if a[k] > 0 { k = k + 1 } else { k = k + 2 }\nif k > n { exit } }",
		// A later branch restores the head past the increment: k + 1
		// repeats, so it is not strict by its positive offset.
		"k = 0\nL0: for q = 1 to n { a[q] = 9 }\nL1: for it = 1 to n { old = k\nif a[it] > 0 { k = k + 1\nb[k] = it }\nif a[it] > 5 { k = old } }",
		// Figure 7/8 nest.
		"k = 0\nL17: loop { i = 1\nL18: loop { k = k + 2\nif i > 100 { exit }\ni = i + 1 }\nk = k + 2\nif k > 10000 { exit } }",
		// Figure 9 triangular, both variants.
		"j = 0\nL19: for i = 1 to n { j = j + i\nL20: for k = 1 to i { j = j + 1 } }",
		"j = 0\nL19: for i = 1 to n { L20: for k = 1 to i { j = j + 1 } }",
		// Doubling.
		"i = 1\nL1: loop { i = i + i\nif i > n { exit } }",
		// Products.
		"L1: for i = 1 to n { x = i * i\na[x] = 0 }",
		// Invariant-address loads as IV steps (§5.1).
		"k = 0\nL1: for i = 1 to n { s = w[5]\nk = k + s\nb[k] = i }",
		// Exponent geometrics.
		"L1: for i = 0 to 12 { x = 2 ** i\na[x] = i }",
		"L1: for i = 1 to 9 by 2 { y = 3 ** i\nb[y] = i }",
		// Monotonic growth with multiplications (§4.4 extension).
		"i = 1\nL1: for it = 1 to n { if a[it] > 0 { i = 2 * i + i } }",
		"i = 2\nL1: for it = 1 to 12 { if a[it] > 0 { i = i * i } else { i = i + 1 } }",
	}
	for _, src := range corpus {
		runOracle(t, src, 0, oracleParams)
	}
}

// TestOracleOnWorkloads runs the oracle over the synthetic benchmark
// workloads.
func TestOracleOnWorkloads(t *testing.T) {
	srcs := []string{
		progen.StraightLineLoop(20),
		progen.MutualChain(5),
		progen.MixedClasses(3),
		progen.NestedLoops(3),
	}
	for _, src := range srcs {
		runOracle(t, src, 0, map[string]int64{"n": 9})
	}
}

// TestQuickOracleRandomPrograms is the master property: on random
// programs with random inputs, no classification prediction is ever
// contradicted by execution.
func TestQuickOracleRandomPrograms(t *testing.T) {
	gen := progen.New()
	count := 0
	prop := func(seed int64, pn, pm int8) bool {
		count++
		src := gen.Program(seed)
		a, err := AnalyzeProgram(src)
		if err != nil {
			return false
		}
		o := newOracle(t, a, src, seed)
		params := map[string]int64{
			"n": int64(pn % 12), "m": int64(pm), "x": 3, "y": -1,
			"i": 1, "j": 2, "k": 3, "l": 4, "t": 5,
		}
		cfg := interp.Config{Params: params, MaxSteps: 100_000}
		_, err = interp.RunSSAHooked(a.SSA, cfg, interp.Hooks{OnBlock: o.onBlock, OnEval: o.onEval})
		if err != nil && err != interp.ErrStepLimit {
			return false
		}
		return !o.failed
	}
	// A drawn input that once failed: the program computes i = 181 + n
	// every iteration of one loop but carries it into n on one branch
	// only, so i repeats although its offset from n's head is positive
	// (§4.4 per-member strictness).
	if !prop(6387921865926800983, -117, 108) {
		t.Error("seed 6387921865926800983, pn -117, pm 108: an execution contradicted a classification")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOracleSweepParams stresses symbolic classifications (linear with
// symbolic steps, symbolic trip counts) across a parameter grid.
func TestOracleSweepParams(t *testing.T) {
	src := `
i = 0
L3: loop {
    i = i + 1
    j = i
    L4: loop {
        j = j + i
        a[j] = i
        if j > m { exit }
    }
    if i > n { exit }
}
`
	for n := int64(0); n < 6; n++ {
		for m := int64(0); m < 40; m += 7 {
			runOracle(t, src, 0, map[string]int64{"n": n, "m": m})
		}
	}
}
