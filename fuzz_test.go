package beyondiv_test

import (
	"errors"
	"strings"
	"testing"

	"beyondiv"
	"beyondiv/internal/interp"
	"beyondiv/internal/parse"
)

// Fuzz targets. `go test` runs the seed corpus as ordinary tests;
// `go test -fuzz FuzzAnalyze` explores further. The invariant under
// fuzzing is "no panic, and anything that parses also analyzes".

var fuzzSeeds = []string{
	"",
	"i = 1",
	"for i = 1 to n { a[i] = a[i-1] }",
	"loop { i = i + 1\nif i > 3 { exit } }",
	"while x < 9 { x = x * 2 }",
	"if a > 1 { b = 2 } else { b = 3 }",
	"j = 1\nk = 2\nfor t = 1 to n { x = j\nj = k\nk = x }",
	"for i = 1 to n { for j = 1 to i { s = s + 1 } }",
	"m = 0\nfor i = 1 to 9 { m = 3 * m + 2 * i + 1 }",
	"x = 2 ** 3 ** 2",
	"for i = -3 to -1 by -0 { a[-i] = 0 }",
	"L:loop{exit}",
	"a[a[a[1]]] = a[a[2]]",
	"i=1;;;;j=2",
	"for i = 1 to 3 { exit }",
	"x = 1 +",  // parse error
	"} {",      // parse error
	"\x00\xff", // scanner garbage
}

// adversarialSeeds are inputs crafted against the hardened front end:
// resource exhaustion (deep nesting, huge loops, exponent blow-ups)
// and int64 edge cases. With default guard.Limits in force each must
// finish quickly with a clean result or a structured error.
func adversarialSeeds() []string {
	return []string{
		"k = 7 ** 99",                                                     // fold would overflow int64
		"k = 2 ** 9223372036854775807",                                    // naive pow loop would never return
		"x = 9223372036854775807 + 1",                                     // MaxInt64 overflow in folding
		"x = (0 - 9223372036854775807) / -1",                              // near-MinInt64 division
		"for i = 0 to 9223372036854775807 { a[i] = i }",                   // 2^63 iterations
		"s = 0\nfor i = 1 to 5 { s = s + 4611686018427387904\na[s] = i }", // wrapping sum subscript
		"L1: for i = 1 to 10 { a[4611686018427387904 * i] = a[2305843009213693952 * i] }",
		"loop { x = x + 1 }",                                                     // no exit: interp step limits must hold
		strings.Repeat("if x < 1 { ", 200) + "y = 1" + strings.Repeat(" }", 200), // deep statement nest
		"z = " + strings.Repeat("(", 150) + "1" + strings.Repeat(")", 150),       // deep expression nest
		"w = 1" + strings.Repeat(" + 1", 400),                                    // wide expression
	}
}

// FuzzAnalyze throws arbitrary bytes at the full pipeline. Analyze
// enforces guard.Default limits, so hostile input must produce a
// structured error or a sound result — never a panic or a hang.
func FuzzAnalyze(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range adversarialSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		prog, err := beyondiv.Analyze(src)
		if err != nil {
			var e *beyondiv.Error
			if !errors.As(err, &e) {
				t.Fatalf("unstructured error %T: %v", err, err)
			}
			return // structured errors are fine; panics are not
		}
		_ = prog.ClassificationReport()
		_ = prog.DependenceReport()
	})
}

// FuzzRun drives Program.Run on analyzed fuzz inputs under an explicit
// step ceiling: execution must terminate (result, runtime error, or
// ErrStepLimit) and never panic, whatever the program does.
func FuzzRun(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s, int64(6))
	}
	for _, s := range adversarialSeeds() {
		f.Add(s, int64(3))
	}
	f.Fuzz(func(t *testing.T, src string, n int64) {
		if len(src) > 1<<12 {
			return
		}
		prog, err := beyondiv.AnalyzeWith(src, beyondiv.Options{SkipDependences: true})
		if err != nil {
			return
		}
		res, err := prog.RunSteps(map[string]int64{"n": n, "m": n}, 20_000)
		if err != nil {
			return // step-limit and runtime errors are the contract
		}
		if res == nil {
			t.Fatalf("nil result with nil error")
		}
	})
}

// FuzzInterpreters checks that any program that parses runs identically
// under the AST and SSA interpreters (within a small budget).
func FuzzInterpreters(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range adversarialSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		file, err := parse.File(src)
		if err != nil {
			return
		}
		cfg := interp.Config{Params: map[string]int64{"n": 6, "m": 9}, MaxSteps: 20_000}
		ra, errA := interp.RunAST(file, cfg)

		prog, err := beyondiv.AnalyzeWith(src, beyondiv.Options{SkipDependences: true})
		if err != nil {
			t.Fatalf("parsed but did not analyze: %v", err)
		}
		rs, errB := interp.RunSSA(prog.SSA, cfg)
		if errA == interp.ErrStepLimit || errB == interp.ErrStepLimit {
			return // budgets are metered differently; inconclusive
		}
		if (errA != nil) != (errB != nil) {
			t.Fatalf("interpreter errors diverge: ast=%v ssa=%v", errA, errB)
		}
		if errA != nil {
			return
		}
		if len(ra.Writes) != len(rs.Writes) {
			t.Fatalf("write traces diverge: %d vs %d", len(ra.Writes), len(rs.Writes))
		}
		for i := range ra.Writes {
			if ra.Writes[i] != rs.Writes[i] {
				t.Fatalf("write %d diverges: %v vs %v", i, ra.Writes[i], rs.Writes[i])
			}
		}
	})
}
