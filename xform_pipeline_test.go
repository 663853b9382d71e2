// Facade-level tests of the Optimize pipeline: the cache-mutation
// regression (optimizing a cache hit twice leaves the cached analysis
// byte-identical) and the corpus-wide differential sweep — every corpus
// and generated program through several pipeline permutations with
// translation validation on.
package beyondiv

import (
	"strings"
	"testing"

	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
	"beyondiv/internal/ssa"
	"beyondiv/internal/xform"
)

// optSrc has work for the scalar passes: a non-normal loop bound (for
// normalize, when named), a wrap-around scalar (m), a
// strength-reduction candidate (3*i), and the dead values the rewrites
// leave behind.
const optSrc = `
j = 0
m = 100
L1: for i = 1 to n {
	k = 3 * i
	a[k] = j + m
	m = i
	j = j + i
}
`

// TestOptimizeCachedProgramImmutable is the Issue 5 regression: seed
// the cache, optimize the same source twice, and require the cached
// analysis to come back byte-identical — clone-on-transform means a
// cache hit is never mutated, no matter how many pipelines run over it.
func TestOptimizeCachedProgramImmutable(t *testing.T) {
	an := NewAnalyzer(Options{CacheEntries: 4})
	cached, err := an.Analyze(optSrc)
	if err != nil {
		t.Fatal(err)
	}
	funcBefore := cached.SSA.Func.String()
	reportBefore := cached.ClassificationReport()

	for round := 1; round <= 2; round++ {
		res, err := an.Optimize(optSrc)
		if err != nil {
			t.Fatalf("optimize round %d: %v", round, err)
		}
		if res.Original.SSA != cached.SSA {
			t.Fatalf("optimize round %d did not hit the cache", round)
		}
		if res.Rewrites == 0 {
			t.Fatalf("optimize round %d: pipeline did not fire on %q", round, optSrc)
		}
		if got := cached.SSA.Func.String(); got != funcBefore {
			t.Fatalf("round %d mutated the cached program:\n--- before\n%s--- after\n%s",
				round, funcBefore, got)
		}
		if got := cached.ClassificationReport(); got != reportBefore {
			t.Fatalf("round %d mutated the cached classification:\n--- before\n%s--- after\n%s",
				round, reportBefore, got)
		}
	}
}

// hasLinearWithPrefix reports whether some loop classifies a value whose
// SSA name carries the prefix as linear — the re-classification check
// that a strength-reduced (sr) or substituted (ivs) recurrence is a
// first-class IV of the transformed program.
func hasLinearWithPrefix(p *Program, prefix string) bool {
	for _, l := range p.Loops.InnerToOuter() {
		for v, c := range p.IV.LoopClassifications(l) {
			if c.Kind == iv.Linear && strings.HasPrefix(v.Name, prefix) {
				return true
			}
		}
	}
	return false
}

func TestOptimizeReclassifiesReducedIV(t *testing.T) {
	res, err := Optimize(optSrc)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, s := range res.Stats {
		if s.Name == "strength" && s.Rewrites > 0 {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("strength reduction did not fire on %q; stats: %+v", optSrc, res.Stats)
	}
	if !hasLinearWithPrefix(res.Program, "sr") {
		t.Errorf("no strength-reduced value re-classified as linear:\n%s",
			res.Program.ClassificationReport())
	}
}

// TestOptimizeCorpusDifferential sweeps every corpus program and a set
// of generated ones through pipeline permutations with translation
// validation ON: any rewrite that changes observable behaviour fails the
// run, and the transformed program must verify as well-formed SSA. This
// is the paper-scale soundness net for the whole transformation layer.
func TestOptimizeCorpusDifferential(t *testing.T) {
	var sources []string
	for i := range paper.Corpus {
		sources = append(sources, paper.Corpus[i].Source)
	}
	sources = append(sources,
		progen.StraightLineLoop(6),
		progen.MutualChain(3),
		progen.MixedClasses(2),
		progen.NestedLoops(3),
		progen.DerivedChain(3),
		progen.DepWorkload(7),
		progen.New().Program(1),
		progen.New().Program(42),
	)

	pipelines := [][]string{
		nil,               // default pipeline
		xform.PassNames(), // every registered pass, normalize included
		{"normalize"},
		{"peel"},
		{"strength"},
		{"dce"},
		{"strength", "dce"},
		{"peel", "normalize", "strength", "dce"}, // permuted AST order
	}
	if testing.Short() {
		pipelines = [][]string{nil}
	}

	for pi, passes := range pipelines {
		an := NewAnalyzer(Options{Passes: passes, CacheEntries: len(sources)})
		for si, src := range sources {
			res, err := an.Optimize(src)
			if err != nil {
				t.Errorf("pipeline %v source %d: %v\nsource:\n%s", passes, si, err, src)
				continue
			}
			if errs := ssa.Verify(res.Program.SSA); len(errs) != 0 {
				t.Errorf("pipeline %v source %d: transformed SSA malformed: %v", passes, si, errs)
			}
			// Whenever strength reduction fired, the recurrence it planted
			// must re-classify as a linear IV of the transformed program.
			for _, s := range res.Stats {
				if s.Name == "strength" && s.Rewrites > 0 && !hasLinearWithPrefix(res.Program, "sr") {
					t.Errorf("pipeline %v source %d: sr recurrence not linear after re-analysis", passes, si)
				}
			}
		}
		_ = pi
	}
}

// TestOptimizeUnknownPass: a typo in Options.Passes surfaces from every
// Optimize entry point, naming the vocabulary, and poisons the whole
// batch rather than one item. Every registered pass resolves by name
// and is listed, normalize included, though the default leaves it out.
func TestOptimizeUnknownPass(t *testing.T) {
	_, err := OptimizeWith(optSrc, Options{Passes: []string{"strengt"}})
	if err == nil || !strings.Contains(err.Error(), "strengt") {
		t.Fatalf("unknown pass not reported: %v", err)
	}
	for _, name := range xform.PassNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error does not list available pass %q: %v", name, err)
		}
		if _, err := OptimizeWith(optSrc, Options{Passes: []string{name}}); err != nil {
			t.Errorf("registered pass %q does not resolve: %v", name, err)
		}
	}
	if res, err := OptimizeWith(optSrc, Options{Passes: []string{"normalize"}}); err != nil || passRewrites(res, "normalize") != 1 {
		t.Errorf("normalize by name did not rewrite optSrc's loop: %v", err)
	}
	// strength does what ivsub did; the name is gone with the pass.
	if _, err := OptimizeWith(optSrc, Options{Passes: []string{"ivsub"}}); err == nil ||
		!strings.Contains(err.Error(), `unknown pass "ivsub"`) {
		t.Errorf("ivsub still resolves: %v", err)
	}
	items := OptimizeBatch([]string{optSrc, optSrc}, Options{Passes: []string{"strengt"}})
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("batch item %d missing pass-resolution error", i)
		}
	}
}

// TestOptimizeMaxRoundsCounted: an Optimize whose passes still rewrite
// in round MaxRounds stops short of its fixed point and counts
// engine.opt.maxrounds once; one that converges counts nothing.
// DerivedChain(k) is a wrap-around chain of order k-1, and peel lowers
// the order by one per round, so k = 16 cannot converge in MaxRounds
// rounds and k = 4 does.
func TestOptimizeMaxRoundsCounted(t *testing.T) {
	for _, tc := range []struct {
		k         int
		maxRounds int64
	}{{16, 1}, {4, 0}} {
		reg := metrics.NewRegistry()
		res, err := NewAnalyzer(Options{Metrics: reg, SkipValidation: true}).Optimize(progen.DerivedChain(tc.k))
		if err != nil {
			t.Fatalf("DerivedChain(%d): %v", tc.k, err)
		}
		if n := reg.Counter("engine.opt.maxrounds"); n != tc.maxRounds {
			t.Errorf("DerivedChain(%d): engine.opt.maxrounds = %d after %d rounds, want %d", tc.k, n, res.Rounds, tc.maxRounds)
		}
		if stopped := res.Rounds == engine.MaxRounds; stopped != (tc.maxRounds == 1) {
			t.Errorf("DerivedChain(%d) ran %d rounds", tc.k, res.Rounds)
		}
	}
}
