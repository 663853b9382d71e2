package xform

import (
	"testing"
	"testing/quick"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
	"beyondiv/internal/ssa"
)

var xfParams = map[string]int64{"n": 11, "m": 30, "c": 2, "k": 3}

// sameBehaviour compares the observable behaviour of two programs under
// the AST interpreter.
func sameBehaviour(t *testing.T, src1 string, file2Src interface{}) bool {
	t.Helper()
	f1, err := parse.File(src1)
	if err != nil {
		t.Fatal(err)
	}
	var r2 *interp.Result
	cfg := interp.Config{Params: xfParams, MaxSteps: 300_000}
	switch v := file2Src.(type) {
	case string:
		f2, err := parse.File(v)
		if err != nil {
			t.Fatal(err)
		}
		r2, err = interp.RunAST(f2, cfg)
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("bad arg")
	}
	r1, err := interp.RunAST(f1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Writes) != len(r2.Writes) {
		t.Errorf("write counts differ: %d vs %d", len(r1.Writes), len(r2.Writes))
		return false
	}
	for i := range r1.Writes {
		if r1.Writes[i] != r2.Writes[i] {
			t.Errorf("write %d differs: %v vs %v", i, r1.Writes[i], r2.Writes[i])
			return false
		}
	}
	for k, v := range r1.Scalars {
		if v2, ok := r2.Scalars[k]; ok && v2 != v {
			t.Errorf("scalar %s differs: %d vs %d", k, v, v2)
			return false
		}
	}
	return true
}

// TestPeelWrapAround reproduces §4.1: peeling the L9 loop turns the
// wrap-around iml into a plain induction variable of the residual loop.
func TestPeelWrapAround(t *testing.T) {
	src := `
iml = n
L9: for i = 1 to n {
    a[i] = a[iml] + 1
    iml = i
}
`
	// Before: iml's header φ is a wrap-around.
	before, err := iv.AnalyzeProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	l9 := before.LoopByLabel("L9")
	imlPhi := findHeaderPhi(before, l9, "iml")
	if imlPhi == nil {
		t.Fatal("no iml φ before peeling")
	}
	if c := before.ClassOf(l9, imlPhi); c.Kind != iv.WrapAround {
		t.Fatalf("iml before peeling = %s, want wrap-around", c)
	}

	// Peel.
	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	peeled, n := PeelProgram(file, map[string]bool{"L9": true})
	if n != 1 {
		t.Fatalf("peeled %d loops, want 1", n)
	}
	peeledSrc := peeled.String()

	// Behaviour is unchanged.
	if !sameBehaviour(t, src, peeledSrc) {
		t.Fatalf("peeling changed behaviour:\n%s", peeledSrc)
	}

	// After: iml classifies as a linear IV in the residual loop.
	after, err := iv.AnalyzeProgram(peeledSrc)
	if err != nil {
		t.Fatal(err)
	}
	rl := after.LoopByLabel("L9")
	if rl == nil {
		t.Fatalf("residual L9 missing:\n%s", peeledSrc)
	}
	phi := findHeaderPhi(after, rl, "iml")
	if phi == nil {
		t.Fatalf("no residual iml φ:\n%s", after.SSA.Func)
	}
	if c := after.ClassOf(rl, phi); c.Kind != iv.Linear {
		t.Errorf("iml after peeling = %s, want linear (§4.1)", c)
	}
}

// TestPeelEffectiveLabel: PeelProgram keys loops by effective label,
// so an unlabeled first loop is L1, the label its classification
// carries.
func TestPeelEffectiveLabel(t *testing.T) {
	src := `
j = 0
for i = 1 to n {
    a[i] = j
    j = i
}
`
	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	peeled, n := PeelProgram(file, map[string]bool{"L1": true})
	if n != 1 {
		t.Fatalf("peeled %d loops, want 1:\n%s", n, peeled)
	}
	if !sameBehaviour(t, src, peeled.String()) {
		t.Fatalf("peeling changed behaviour:\n%s", peeled)
	}
}

func findHeaderPhi(a *iv.Analysis, l *loops.Loop, name string) *ir.Value {
	for _, v := range l.Header.Values {
		if v.Op == ir.OpPhi && a.SSA.VarOf(v) == name {
			return v
		}
	}
	return nil
}

// TestPeelPreservesBehaviourQuick peels every labeled for-loop in
// random programs and compares behaviour.
func TestPeelPreservesBehaviourQuick(t *testing.T) {
	gen := progen.New()
	prop := func(seed int64) bool {
		src := gen.Program(seed)
		f1, err := parse.File(src)
		if err != nil {
			return false
		}
		f2, err := parse.File(src)
		if err != nil {
			return false
		}
		peeled, _ := PeelProgram(f2, nil) // peel every for-loop

		cfg := interp.Config{Params: xfParams, MaxSteps: 150_000}
		r1, err1 := interp.RunAST(f1, cfg)
		r2, err2 := interp.RunAST(peeled, cfg)
		if err1 != nil || err2 != nil {
			// Step limits are inconclusive (peeling shifts the budget).
			return err1 == interp.ErrStepLimit || err2 == interp.ErrStepLimit
		}
		if len(r1.Writes) != len(r2.Writes) {
			t.Logf("seed %d: writes %d vs %d\n%s", seed, len(r1.Writes), len(r2.Writes), src)
			return false
		}
		for i := range r1.Writes {
			if r1.Writes[i] != r2.Writes[i] {
				t.Logf("seed %d: write %d differs\n%s", seed, i, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// buildAnalysis builds the full pipeline for strength reduction tests.
func buildAnalysis(t *testing.T, src string) *iv.Analysis {
	t.Helper()
	a, err := iv.AnalyzeProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runSSAWith runs info on params and counts multiplication executions.
func runSSAWith(t *testing.T, info *ssa.Info, params map[string]int64) (*interp.Result, int) {
	t.Helper()
	muls := 0
	res, err := interp.RunSSAHooked(info, interp.Config{Params: params, MaxSteps: 300_000}, interp.Hooks{
		OnEval: func(v *ir.Value, val int64) {
			if v.Op == ir.OpMul {
				muls++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, muls
}

// TestStrengthReduce replaces the address multiplication in a classic
// array loop with an addition-maintained IV; behaviour is preserved,
// SSA stays valid, and the dynamic multiplication count drops.
func TestStrengthReduce(t *testing.T) {
	src := `
L1: for i = 1 to n {
    a[4 * i + 3] = i
}
`
	a := buildAnalysis(t, src)
	before, mulsBefore := runSSAWith(t, a.SSA, xfParams)
	if mulsBefore == 0 {
		t.Fatal("expected multiplications before reduction")
	}

	n := ReduceStrength(a)
	if n != 1 {
		t.Fatalf("reduced %d multiplications, want 1", n)
	}
	if errs := ssa.Verify(a.SSA); len(errs) != 0 {
		t.Fatalf("SSA broken after reduction: %v\n%s", errs, a.SSA.Func)
	}
	after, mulsAfter := runSSAWith(t, a.SSA, xfParams)
	if mulsAfter >= mulsBefore {
		t.Errorf("muls: before %d, after %d — no win", mulsBefore, mulsAfter)
	}
	if len(before.Writes) != len(after.Writes) {
		t.Fatalf("writes differ: %d vs %d", len(before.Writes), len(after.Writes))
	}
	for i := range before.Writes {
		if before.Writes[i] != after.Writes[i] {
			t.Errorf("write %d differs: %v vs %v", i, before.Writes[i], after.Writes[i])
		}
	}
}

// TestStrengthReduceNested reduces the inner-loop address computation
// of a 2-D traversal (both counters participate).
func TestStrengthReduceNested(t *testing.T) {
	src := `
L1: for i = 1 to 8 {
    L2: for j = 1 to 8 {
        a[8 * i + j] = i + j
    }
}
`
	a := buildAnalysis(t, src)
	before, mulsBefore := runSSAWith(t, a.SSA, xfParams)
	n := ReduceStrength(a)
	if n == 0 {
		t.Fatalf("nothing reduced:\n%s", a.SSA.Func)
	}
	if errs := ssa.Verify(a.SSA); len(errs) != 0 {
		t.Fatalf("SSA broken: %v", errs)
	}
	after, mulsAfter := runSSAWith(t, a.SSA, xfParams)
	if mulsAfter >= mulsBefore {
		t.Errorf("muls: before %d, after %d", mulsBefore, mulsAfter)
	}
	for i := range before.Writes {
		if before.Writes[i] != after.Writes[i] {
			t.Fatalf("write %d differs after reduction", i)
		}
	}
}

// TestStrengthReduceProductOfProduct: each product carries its own
// classification, so 3·k reduces even after k = 4·i has become a φ,
// and the loop executes no multiply at all.
func TestStrengthReduceProductOfProduct(t *testing.T) {
	src := `
L1: for i = 1 to n {
    k = 4 * i
    a[3 * k] = i
}
`
	a := buildAnalysis(t, src)
	params := map[string]int64{"n": 16}
	before, mulsBefore := runSSAWith(t, a.SSA, params)
	if n := ReduceStrength(a); n != 2 {
		t.Fatalf("reduced %d products, want 2:\n%s", n, a.SSA.Func)
	}
	if errs := ssa.Verify(a.SSA); len(errs) != 0 {
		t.Fatalf("SSA broken: %v", errs)
	}
	after, mulsAfter := runSSAWith(t, a.SSA, params)
	if mulsBefore != 32 || mulsAfter != 0 {
		t.Errorf("multiplies at n = 16: %d before, %d after; want 32 and 0", mulsBefore, mulsAfter)
	}
	for i := range before.Writes {
		if before.Writes[i] != after.Writes[i] {
			t.Fatalf("write %d differs after reduction", i)
		}
	}
}

// TestStrengthReduceZeroStep: a product Linear with step zero (it reads
// a header φ the loop never changes) is still reduced: the recurrence
// computes it once in the preheader instead of once per iteration.
func TestStrengthReduceZeroStep(t *testing.T) {
	src := `
t = n
L1: for i = 1 to n {
    t = t
    a[8 * t + i] = i
}
`
	a := buildAnalysis(t, src)
	params := map[string]int64{"n": 16}
	before, mulsBefore := runSSAWith(t, a.SSA, params)
	if n := ReduceStrength(a); n != 1 {
		t.Fatalf("reduced %d products, want 1:\n%s", n, a.SSA.Func)
	}
	if errs := ssa.Verify(a.SSA); len(errs) != 0 {
		t.Fatalf("SSA broken: %v", errs)
	}
	after, mulsAfter := runSSAWith(t, a.SSA, params)
	if mulsBefore != 16 || mulsAfter != 1 {
		t.Errorf("multiplies at n = 16: %d before, %d after; want 16 and 1", mulsBefore, mulsAfter)
	}
	for i := range before.Writes {
		if before.Writes[i] != after.Writes[i] {
			t.Fatalf("write %d differs after reduction", i)
		}
	}
}

// TestStrengthReduceQuick: reduction never changes behaviour on random
// programs.
func TestStrengthReduceQuick(t *testing.T) {
	gen := progen.New()
	prop := func(seed int64) bool {
		src := gen.Program(seed)
		file1, err := parse.File(src)
		if err != nil {
			return false
		}
		info1 := ssa.Build(cfgbuild.Build(file1).Func)
		cfg := interp.Config{Params: xfParams, MaxSteps: 150_000}
		r1, err1 := interp.RunSSA(info1, cfg)

		a, err := iv.AnalyzeProgram(src)
		if err != nil {
			return false
		}
		ReduceStrength(a)
		if errs := ssa.Verify(a.SSA); len(errs) != 0 {
			t.Logf("seed %d: verify failed: %v\n%s", seed, errs, src)
			return false
		}
		r2, err2 := interp.RunSSA(a.SSA, cfg)
		if err1 != nil || err2 != nil {
			return err1 == interp.ErrStepLimit || err2 == interp.ErrStepLimit
		}
		if len(r1.Writes) != len(r2.Writes) {
			t.Logf("seed %d: writes %d vs %d\n%s", seed, len(r1.Writes), len(r2.Writes), src)
			return false
		}
		for i := range r1.Writes {
			if r1.Writes[i] != r2.Writes[i] {
				t.Logf("seed %d: write %d differs\n%s", seed, i, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
