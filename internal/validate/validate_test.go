package validate_test

import (
	"strings"
	"testing"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/guard"
	"beyondiv/internal/interp"
	"beyondiv/internal/parse"
	"beyondiv/internal/ssa"
	"beyondiv/internal/validate"
)

func buildSSA(t *testing.T, src string) *ssa.Info {
	t.Helper()
	f, err := parse.File(src)
	if err != nil {
		t.Fatal(err)
	}
	lim := guard.Default()
	res := cfgbuild.BuildGuarded(f, nil, lim)
	return ssa.BuildScratch(res.Func, nil, lim, nil)
}

func TestFuncsEquivalent(t *testing.T) {
	src := `
	j = 0
	for i = 1 to n {
		j = j + i
		a[j] = i
	}
	`
	// Two independent builds of the same source are trivially
	// equivalent; this pins the harness's plumbing (param enumeration,
	// trace comparison) on a loop whose behaviour varies with n across
	// the grid, including negative and zero trip counts.
	orig := buildSSA(t, src)
	xf := buildSSA(t, src)
	if err := validate.Funcs(orig, xf, validate.Options{}); err != nil {
		t.Fatalf("identical programs reported divergent: %v", err)
	}
}

func TestFuncsCatchesScalarChange(t *testing.T) {
	orig := buildSSA(t, `
	j = 0
	for i = 1 to n { j = j + 2 }
	`)
	xf := buildSSA(t, `
	j = 0
	for i = 1 to n { j = j + 3 }
	`)
	err := validate.Funcs(orig, xf, validate.Options{})
	if err == nil {
		t.Fatal("divergent scalar not caught")
	}
	if !strings.Contains(err.Error(), "scalar j differs") {
		t.Fatalf("wrong diagnosis: %v", err)
	}
}

func TestFuncsCatchesStoreChange(t *testing.T) {
	orig := buildSSA(t, `for i = 1 to n { a[i] = i }`)
	xf := buildSSA(t, `for i = 1 to n { a[i + 1] = i }`)
	err := validate.Funcs(orig, xf, validate.Options{})
	if err == nil {
		t.Fatal("divergent store trace not caught")
	}
	if !strings.Contains(err.Error(), "store") {
		t.Fatalf("wrong diagnosis: %v", err)
	}
}

func TestFuncsCatchesLostScalar(t *testing.T) {
	orig := buildSSA(t, `k = n * 2`)
	xf := buildSSA(t, `q = n * 2`)
	err := validate.Funcs(orig, xf, validate.Options{})
	if err == nil || !strings.Contains(err.Error(), "scalar k lost") {
		t.Fatalf("lost scalar not caught: %v", err)
	}
}

func TestFuncsExtraScalarAllowed(t *testing.T) {
	// Transformations may introduce fresh scalars (normalization
	// counters); only original scalars are compared.
	orig := buildSSA(t, `k = n * 2`)
	xf := buildSSA(t, `
	extra = 7
	k = n * 2
	`)
	if err := validate.Funcs(orig, xf, validate.Options{}); err != nil {
		t.Fatalf("extra scalar rejected: %v", err)
	}
}

func TestFuncsSkipsUnboundedOriginal(t *testing.T) {
	// The original never terminates: no assignment yields ground truth,
	// so validation must skip every run rather than fail or hang.
	orig := buildSSA(t, `loop { j = j + 1 }`)
	xf := buildSSA(t, `loop { j = j + 2 }`)
	if err := validate.Funcs(orig, xf, validate.Options{MaxSteps: 1000}); err != nil {
		t.Fatalf("step-limited original should skip, got: %v", err)
	}
}

func TestFuncsGridCap(t *testing.T) {
	// Five parameters over the default 8-value grid is 32768 full cross
	// products; MaxRuns must cap enumeration (and still find this
	// first-run divergence: every parameter at grid[0]).
	orig := buildSSA(t, `k = p1 + p2 + p3 + p4 + p5`)
	xf := buildSSA(t, `k = p1 + p2 + p3 + p4 + p5 + 1`)
	err := validate.Funcs(orig, xf, validate.Options{MaxRuns: 10})
	if err == nil {
		t.Fatal("divergence within capped runs not caught")
	}
}

// TestBaselineMatchesFuncs: one Baseline checked against a series of
// transformed programs — as an Optimize run checks each rewrite — gives
// exactly the answer a fresh Funcs call gives for each, in either
// trace order, including grid points where the original has no ground
// truth (step limit).
func TestBaselineMatchesFuncs(t *testing.T) {
	cases := []struct {
		orig string
		xfs  []string
		opts validate.Options
	}{
		{
			orig: `
	j = 0
	for i = 1 to n {
		j = j + i
		a[j] = i
	}
	`,
			xfs: []string{
				`j = 0
	for i = 1 to n { j = j + i
		a[j] = i }`,
				`j = 0
	for i = 1 to n { j = j + i
		a[j + 1] = i }`,
				`j = 0
	for i = 1 to n { j = j + 2 }`,
				`for i = 1 to n { a[i] = i }`,
			},
		},
		{
			// The original passes the step budget for large n only.
			orig: `for i = 1 to n { for k = 1 to n { b[k] = i } }`,
			xfs: []string{
				`for k = 1 to n { for i = 1 to n { b[k] = i } }`,
				`for i = 1 to n { for k = 1 to n { b[k] = i } }`,
			},
			opts: validate.Options{MaxSteps: 200},
		},
	}
	errString := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, c := range cases {
		orig := buildSSA(t, c.orig)
		b := validate.NewBaseline(orig, c.opts)
		for round := 0; round < 2; round++ {
			for _, src := range c.xfs {
				xf := buildSSA(t, src)
				for _, order := range []validate.TraceOrder{validate.ExactOrder, validate.PerCellOrder} {
					opts := c.opts
					opts.Order = order
					want := errString(validate.Funcs(orig, xf, opts))
					if got := errString(b.Check(interp.Compile(xf), order)); got != want {
						t.Errorf("%q vs %q (order %d, round %d): Baseline %s, Funcs %s",
							c.orig, src, order, round, got, want)
					}
				}
			}
		}
	}
}

// TestBaselineLongTrace: a trace longer than a Baseline keeps is run
// again at the next check, with the same verdicts.
func TestBaselineLongTrace(t *testing.T) {
	src := `for i = 1 to 270000 { a[i] = i }`
	orig := buildSSA(t, src)
	b := validate.NewBaseline(orig, validate.Options{MaxSteps: 10_000_000})
	if err := b.Check(interp.Compile(buildSSA(t, src)), validate.ExactOrder); err != nil {
		t.Fatalf("identical program reported divergent: %v", err)
	}
	err := b.Check(interp.Compile(buildSSA(t, `for i = 1 to 270000 { a[i] = i + 1 }`)), validate.ExactOrder)
	if err == nil || !strings.Contains(err.Error(), "store 0 differs") {
		t.Fatalf("divergent store on the re-run not caught: %v", err)
	}
}

// TestFuncsNamesFirstScalar: when several scalars differ, the error
// names the first in name order, every time.
func TestFuncsNamesFirstScalar(t *testing.T) {
	orig := buildSSA(t, "a = 1\nb = 2\nc = 3\nd = 4\n")
	xf := buildSSA(t, "a = 5\nb = 6\nc = 7\nd = 8\n")
	texts := map[string]int{}
	for range 50 {
		err := validate.Funcs(orig, xf, validate.Options{})
		if err == nil {
			t.Fatal("changed scalars not caught")
		}
		texts[err.Error()]++
	}
	want := "validate: params {}: scalar a differs: 1 originally, 5 transformed"
	if len(texts) != 1 || texts[want] != 50 {
		t.Fatalf("texts %v, want only %q", texts, want)
	}
}

// TestParallelNamesFirstScalar: Parallel names the first differing
// scalar in name order too. Marking a reduction loop parallel loses
// updates of both sums.
func TestParallelNamesFirstScalar(t *testing.T) {
	src := "b = 0\na = 0\nL1: for i = 1 to 8 {\n    b = b + i\n    a = a + i\n}\n"
	file := parse.MustParse(src)
	info := buildSSA(t, src)
	texts := map[string]int{}
	for range 50 {
		err := validate.Parallel(info, file, map[string]bool{"L1": true}, 4, validate.Options{})
		if err == nil {
			t.Fatal("a parallel reduction must not validate")
		}
		texts[err.Error()]++
	}
	if len(texts) != 1 {
		t.Fatalf("texts %v, want one", texts)
	}
	for text := range texts {
		if !strings.Contains(text, "scalar a differs") {
			t.Fatalf("text %q does not name scalar a", text)
		}
	}
}

// TestExactOrderErrorTexts: an ExactOrder check stops its transformed
// run at the first differing store, yet reports what a whole-trace
// comparison reports: a later failure of the run, or a length that
// differs, wins over the first differing store, as it always did.
func TestExactOrderErrorTexts(t *testing.T) {
	orig := buildSSA(t, "a[1] = 1\na[2] = 2\n")
	cases := []struct{ xf, want string }{
		{"a[1] = 1\na[2] = 3\n", "store 1 differs: a[2]=2 originally, a[2]=3 transformed"},
		{"a[1] = 1\na[2] = 2\na[3] = 3\n", "store trace length differs: 2 writes originally, 3 transformed"},
		{"a[1] = 1\n", "store trace length differs: 2 writes originally, 1 transformed"},
		{"a[1] = 1\na[2] = 3\na[3] = 3\n", "store trace length differs: 2 writes originally, 3 transformed"},
		{"a[1] = 7\na[2] = 2\nloop {\n    x = x + 1\n}\n", "transformed program failed: interp: step limit exceeded"},
		{"a[1] = 1\na[2] = 2\nx = 1\n", ""},
	}
	for _, c := range cases {
		err := validate.Funcs(orig, buildSSA(t, c.xf), validate.Options{})
		want := ""
		if c.want != "" {
			want = "validate: params {}: " + c.want
		}
		if got := errString(err); got != want {
			t.Errorf("%q: got %q, want %q", c.xf, got, want)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
