package xform

import (
	"testing"
	"testing/quick"

	"beyondiv/internal/depend"
	"beyondiv/internal/interp"
	"beyondiv/internal/iv"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// TestNormalizePreservesBehaviour: normalization must not change the
// observable behaviour of random programs.
func TestNormalizePreservesBehaviour(t *testing.T) {
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
		norm, _ := NormalizeProgram(f2)

		cfg := interp.Config{Params: xfParams, MaxSteps: 150_000}
		r1, err1 := interp.RunAST(f1, cfg)
		r2, err2 := interp.RunAST(norm, cfg)
		if err1 != nil || err2 != nil {
			// Step limits are inconclusive: normalization changes the
			// statement count, so the budgets differ.
			return err1 == interp.ErrStepLimit || err2 == interp.ErrStepLimit
		}
		if len(r1.Writes) != len(r2.Writes) {
			t.Logf("seed %d: writes %d vs %d\n%s\nnormalized:\n%s", seed, len(r1.Writes), len(r2.Writes), src, norm)
			return false
		}
		for i := range r1.Writes {
			if r1.Writes[i] != r2.Writes[i] {
				t.Logf("seed %d: write %d differs\n%s", seed, i, src)
				return false
			}
		}
		// Scalars the original defines must agree (the normalized form
		// adds counters; ignore extras).
		for k, v := range r1.Scalars {
			if v2, ok := r2.Scalars[k]; ok && v2 != v {
				t.Logf("seed %d: scalar %s %d vs %d\n%s", seed, k, v, v2, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNormalizationInvariance is §6.1 end-to-end: the paper's L23/L24
// dependence results are identical before and after normalization —
// this representation has nothing to lose from either spelling.
func TestNormalizationInvariance(t *testing.T) {
	src := `
L23: for i = 1 to 9 {
    L24: for j = i + 1 to 9 {
        a[i * 1000 + j] = a[i * 1000 + j - 1000]
    }
}
`
	before, err := iv.AnalyzeProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	depsBefore := depend.Analyze(before, depend.Options{})

	file, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	norm, n := NormalizeProgram(file)
	if n != 2 {
		t.Fatalf("normalized %d loops, want 2:\n%s", n, norm)
	}
	after, err := iv.AnalyzeProgram(norm.String())
	if err != nil {
		t.Fatal(err)
	}
	depsAfter := depend.Analyze(after, depend.Options{})

	// Same dependence kinds with the same direction vectors.
	sig := func(r *depend.Result) map[string]int {
		out := map[string]int{}
		for _, d := range r.Deps {
			key := d.Kind.String() + ":" + d.Src.Array
			for _, dir := range d.Dirs {
				key += ":" + dir.String()
			}
			out[key]++
		}
		return out
	}
	sb, sa := sig(depsBefore), sig(depsAfter)
	if len(sb) != len(sa) {
		t.Fatalf("dependence signatures differ:\nbefore %v\nafter  %v", sb, sa)
	}
	for k, v := range sb {
		if sa[k] != v {
			t.Errorf("signature %q: before %d, after %d", k, v, sa[k])
		}
	}
}

// TestNormalizeStep: constant-bound loops with non-unit steps fold
// their normalized count exactly, including zero-trip shapes.
func TestNormalizeStep(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int64
	}{
		{"c = 0\nfor i = 1 to 10 by 3 { c = c + 1 }", 4},
		{"c = 0\nfor i = 1 to 1 by 2 { c = c + 1 }", 1},
		{"c = 0\nfor i = 2 to 1 by 2 { c = c + 1 }", 0},
		{"c = 0\nfor i = 2 to 1 { c = c + 1 }", 0},
	} {
		f1, err := parse.File(c.src)
		if err != nil {
			t.Fatal(err)
		}
		norm, _ := NormalizeProgram(f1)
		r, err := interp.RunAST(norm, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Scalars["c"] != c.want {
			t.Errorf("%q normalized: c = %d, want %d\n%s", c.src, r.Scalars["c"], c.want, norm)
		}
	}
}

// TestNormalizeRefusals: symbolic non-unit steps and bodies that write
// the loop variable are left alone.
func TestNormalizeRefusals(t *testing.T) {
	for _, src := range []string{
		"for i = 1 to n by k { a[i] = 0 }",
		"for i = 1 to n { i = i + 1 }",
		"for i = 1 to n { n = n - 1 }",
		"for i = n to 1 by -1 { a[i] = 0 }",
	} {
		f, err := parse.File(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, n := NormalizeProgram(f); n != 0 {
			t.Errorf("%q should refuse normalization", src)
		}
	}
}

// TestNormalizeKeepsProgramNames: a counter never takes a name the
// program already uses. Here the first name of the sequence is the
// program's own scalar; a counter named nrma0 would overwrite it and
// write a[1] = 0 and b[0] = 3 at n = 3.
func TestNormalizeKeepsProgramNames(t *testing.T) {
	src := `
nrma0 = 5
L1: for i = 1 to n {
    a[i] = nrma0
    nrma0 = nrma0 + 2
}
b[0] = nrma0
`
	f1, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	norm, n := NormalizeProgram(f2)
	if n != 1 {
		t.Fatalf("normalized %d loops, want 1:\n%s", n, norm)
	}
	cfg := interp.Config{Params: map[string]int64{"n": 3}}
	r1, err1 := interp.RunAST(f1, cfg)
	r2, err2 := interp.RunAST(norm, cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if len(r1.Writes) != 4 || len(r2.Writes) != len(r1.Writes) {
		t.Fatalf("writes %v, normalized %v", r1.Writes, r2.Writes)
	}
	for i := range r1.Writes {
		if r1.Writes[i] != r2.Writes[i] {
			t.Errorf("write %d: %v, normalized %v\n%s", i, r1.Writes[i], r2.Writes[i], norm)
		}
	}
}

// TestNormCounterNamesNeverRepeat: loop 261 of a file must not reuse
// loop 1's counter.
func TestNormCounterNamesNeverRepeat(t *testing.T) {
	seen := map[string]int{}
	for id := 1; id <= 1000; id++ {
		name := normCounterName(id)
		if prev, dup := seen[name]; dup {
			t.Fatalf("loops %d and %d both get counter %s", prev, id, name)
		}
		seen[name] = id
	}
}
