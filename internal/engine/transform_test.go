// Transform-layer tests: clone-on-transform immutability, fixed-point
// iteration, per-tier re-analysis, panic containment under the
// "xform.<name>" phase, and the translation-validation backstop.
package engine_test

import (
	"errors"
	"strings"
	"testing"

	"beyondiv/internal/ast"
	"beyondiv/internal/engine"
	"beyondiv/internal/ir"
)

// optEngine builds an engine with the frontend and the given transforms.
func optEngine(cfg engine.Config, xforms ...engine.TransformPass) *engine.Engine {
	cfg.Passes = engine.Frontend()
	cfg.Transforms = xforms
	return engine.New(cfg)
}

// noiseConst is a harmless TierSSA rewrite: it plants one dead sentinel
// constant in the entry block unless one is already there, so it
// quiesces after a single rewrite. Dead and unnamed, the constant is
// invisible to the interpreter, so validation must pass. The decision
// reads only the working state — no closure state — so one pass value
// is safe across concurrent OptimizeAll workers.
func noiseConst() engine.TransformPass {
	const sentinel = 123456789
	return engine.TransformPass{Name: "noise", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) {
			entry := st.SSA.Func.Entry
			for _, v := range entry.Values {
				if v.Op == ir.OpConst && v.Const == sentinel {
					return 0, nil
				}
			}
			v := st.SSA.Func.NewValue(entry, ir.OpConst)
			v.Const = sentinel
			return 1, nil
		}}
}

func TestOptimizeNoTransforms(t *testing.T) {
	e := optEngine(engine.Config{})
	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != res.Original {
		t.Error("empty pipeline should alias the analyzed state")
	}
	if res.Rounds != 0 || res.Rewrites != 0 || len(res.Stats) != 0 {
		t.Errorf("empty pipeline reported work: %+v", res)
	}
}

// TestOptimizeCloneOnTransform is the cache-mutation hazard regression
// at the engine layer: Analyze first so Optimize hits the cache, run a
// mutating pipeline, and check the cached state — pointer-identical on
// the second Analyze — is byte-identical to what it was before.
func TestOptimizeCloneOnTransform(t *testing.T) {
	e := optEngine(engine.Config{CacheEntries: 4}, noiseConst())
	cached, err := e.Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	before := cached.SSA.Func.String()

	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Original != cached {
		t.Fatal("Optimize did not analyze through the cache")
	}
	if res.State == cached || res.State.SSA == cached.SSA || res.State.SSA.Func == cached.SSA.Func {
		t.Fatal("transformed state shares IR with the cached analysis")
	}
	if got := cached.SSA.Func.String(); got != before {
		t.Fatalf("optimizing a cache hit mutated the cached program:\n--- before\n%s--- after\n%s", before, got)
	}
	again, err := e.Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	if again != cached {
		t.Fatal("cache entry evicted or replaced by Optimize")
	}
}

func TestOptimizeFixedPoint(t *testing.T) {
	e := optEngine(engine.Config{}, noiseConst())
	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 rewrites, round 2 observes quiescence and stops.
	if res.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Rounds)
	}
	if res.Rewrites != 1 || len(res.Stats) != 1 {
		t.Fatalf("stats = %+v, want one single-rewrite entry", res.Stats)
	}
	if s := res.Stats[0]; s.Name != "noise" || s.Round != 1 || s.Rewrites != 1 {
		t.Errorf("stat = %+v", s)
	}
	if res.Validations != 1 {
		t.Errorf("validations = %d, want 1", res.Validations)
	}
}

func TestOptimizeMaxRoundsCap(t *testing.T) {
	// A pass that never quiesces must be stopped by the round cap.
	restless := engine.TransformPass{Name: "restless", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) {
			st.SSA.Func.NewValue(st.SSA.Func.Entry, ir.OpConst)
			return 1, nil
		}}
	e := optEngine(engine.Config{}, restless)
	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != engine.MaxRounds || len(res.Stats) != engine.MaxRounds {
		t.Errorf("rounds = %d, stats = %+v; want the cap of %d", res.Rounds, res.Stats, engine.MaxRounds)
	}
}

// TestOptimizeASTTier: an AST rewrite runs on a private clone of the
// file and the whole frontend is rebuilt on it, so the transformed SSA
// carries the new statement while the original file and SSA stay
// untouched.
func TestOptimizeASTTier(t *testing.T) {
	addStmt := func() engine.TransformPass {
		fired := false
		return engine.TransformPass{Name: "addstmt", Tier: engine.TierAST,
			Run: func(st *engine.State) (int, error) {
				if fired {
					return 0, nil
				}
				fired = true
				st.File.Stmts = append(st.File.Stmts, &ast.Assign{
					LHS: &ast.Ident{Name: "zz"},
					RHS: &ast.Num{Value: 7},
				})
				return 1, nil
			}}
	}
	e := optEngine(engine.Config{}, addStmt())
	orig, err := e.Analyze(src)
	if err != nil {
		t.Fatal(err)
	}
	fileBefore := orig.File.String()

	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.File == res.Original.File || res.State.SSA == res.Original.SSA {
		t.Fatal("AST rewrite shares File/SSA with the original")
	}
	if !strings.Contains(res.State.File.String(), "zz = 7") {
		t.Errorf("rewritten file lost the new statement:\n%s", res.State.File)
	}
	if !strings.Contains(res.State.SSA.Func.String(), "zz") {
		t.Error("frontend not rebuilt on the rewritten AST: no zz in SSA")
	}
	if got := res.Original.File.String(); got != fileBefore {
		t.Fatalf("AST rewrite mutated the original file:\n%s", got)
	}
}

func TestOptimizePanicContained(t *testing.T) {
	boom := engine.TransformPass{Name: "boom", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) { panic("kaboom") }}
	_, err := optEngine(engine.Config{}, boom).Optimize(src)
	var ee *engine.Error
	if !errors.As(err, &ee) {
		t.Fatalf("panic not contained as *engine.Error: %v", err)
	}
	if ee.Phase != "xform.boom" || ee.Stack == nil {
		t.Errorf("contained fault misattributed: phase=%q stack=%v", ee.Phase, ee.Stack != nil)
	}
}

func TestOptimizeTransformError(t *testing.T) {
	bad := engine.TransformPass{Name: "bad", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) { return 0, errors.New("no luck") }}
	_, err := optEngine(engine.Config{}, bad).Optimize(src)
	var ee *engine.Error
	if !errors.As(err, &ee) || ee.Phase != "xform.bad" {
		t.Fatalf("transform error not phase-attributed: %v", err)
	}
	if ee != nil && ee.Stack != nil {
		t.Error("plain error should not carry a panic stack")
	}
}

// TestOptimizeValidationCatchesBadRewrite: a pass that changes program
// behaviour — rewriting the constant that initializes j — must be
// rejected by translation validation, attributed to the pass.
func TestOptimizeValidationCatchesBadRewrite(t *testing.T) {
	evil := engine.TransformPass{Name: "evil", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) {
			for _, b := range st.SSA.Func.Blocks {
				for _, v := range b.Values {
					if v.Op == ir.OpConst && v.Const == 0 {
						v.Const = 7
						return 1, nil
					}
				}
			}
			return 0, nil
		}}
	_, err := optEngine(engine.Config{}, evil).Optimize(src)
	if err == nil {
		t.Fatal("behaviour-changing rewrite slipped past validation")
	}
	var ee *engine.Error
	if !errors.As(err, &ee) || ee.Phase != "xform.evil.validate" {
		t.Fatalf("validation failure misattributed: %v", err)
	}

	// With validation off the same pipeline goes through — SkipValidation
	// really is the only gate.
	res, err := optEngine(engine.Config{SkipValidation: true}, evil).Optimize(src)
	if err != nil {
		t.Fatalf("SkipValidation did not bypass validation: %v", err)
	}
	if res.Validations != 0 {
		t.Errorf("validations = %d with validation off", res.Validations)
	}
}

func TestOptimizeAllBatch(t *testing.T) {
	sources := []string{src, "j = )broken(", src, "k = n * 3"}
	e := optEngine(engine.Config{Jobs: 2, CacheEntries: 8}, noiseConst())
	items := e.OptimizeAll(sources)
	if len(items) != len(sources) {
		t.Fatalf("got %d items for %d sources", len(items), len(sources))
	}
	for i, it := range items {
		if it.Index != i || it.Source != sources[i] {
			t.Errorf("item %d out of order: %+v", i, it)
		}
	}
	if items[1].Err == nil {
		t.Error("syntax error not isolated to its item")
	}
	for _, i := range []int{0, 2, 3} {
		if items[i].Err != nil {
			t.Errorf("item %d failed: %v", i, items[i].Err)
		}
	}
}
