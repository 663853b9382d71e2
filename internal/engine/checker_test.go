// Tests of re-analysis on demand and of the checker: analyses rerun
// only before a pass that reads them (and before Optimize returns),
// checks run contained, inline at width 1 and on one checker goroutine
// beside the pipeline at width 2 or more, and the first failing check
// is the error at every width.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/iv"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/xform"
)

// addressLoop is a nest that normalize, strength and dce all rewrite
// in the first round.
const addressLoop = `
L1: for i = 1 to n {
    L2: for j = 1 to n {
        a[64 * i + j] = a[64 * i + j - 64] + j
    }
}
`

// fullPasses is the facade's analysis pipeline, each pass counting its
// runs into runs.
func fullPasses(runs map[string]int) []engine.Pass {
	passes := append(engine.Frontend(), iv.ClassifyPass(iv.Options{}), depend.Pass(depend.Options{}))
	for i := range passes {
		name, run := passes[i].Name, passes[i].Run
		passes[i].Run = func(st *engine.State) error {
			runs[name]++
			return run(st)
		}
	}
	return passes
}

// TestReanalysisOnDemand: a program that normalize, strength and dce
// each rewrite reruns loops through depend twice, not once per
// rewrite: once before strength reads the analyses of the normalized
// program, and once before strength reads them again in the round that
// finds the fixed point. Nothing reads them after dce until then.
func TestReanalysisOnDemand(t *testing.T) {
	xforms, err := xform.Passes([]string{"normalize", "strength", "dce"})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2} {
		runs := map[string]int{}
		e := engine.New(engine.Config{Passes: fullPasses(runs), Transforms: xforms, Parallel: par})
		res, err := e.Optimize(addressLoop)
		if err != nil {
			t.Fatal(err)
		}
		var first []string
		for _, s := range res.Stats {
			if s.Round == 1 {
				first = append(first, s.Name)
			}
		}
		if !slices.Equal(first, []string{"normalize", "strength", "dce"}) {
			t.Fatalf("round 1 rewrote %v, want normalize, strength and dce", first)
		}
		// One analysis of the source, two re-analyses; cfgbuild and ssa
		// rebuild after each AST rewrite, and normalize rewrote once.
		want := map[string]int{"parse": 1, "cfgbuild": 2, "ssa": 2, "loops": 3, "sccp": 3, "iv": 3, "depend": 3}
		for name, n := range want {
			if runs[name] != n {
				t.Errorf("Parallel %d: %s ran %d times, want %d (all: %v)", par, name, runs[name], n, runs)
			}
		}
	}
}

// TestOptimizeReturnsFreshAnalyses: a pipeline whose last rewrite is a
// pass that reads no analyses still returns analyses of the returned
// program, not of the one before the rewrite.
func TestOptimizeReturnsFreshAnalyses(t *testing.T) {
	noise := noiseConst()
	noise.NoAnalyses = true
	e := optEngine(engine.Config{}, noise)
	res, err := e.Optimize(src)
	if err != nil {
		t.Fatal(err)
	}
	st := res.State
	if st == res.Original {
		t.Fatal("the rewrite did not make a private state")
	}
	var planted *ir.Value
	for _, v := range st.SSA.Func.Entry.Values {
		if v.Op == ir.OpConst && v.Const == 123456789 {
			planted = v
		}
	}
	if planted == nil {
		t.Fatal("no planted constant in the returned program")
	}
	if c, ok := st.Consts.Const(planted); !ok || c != 123456789 {
		t.Errorf("Consts does not know the planted constant: %d, %v", c, ok)
	}
	if len(st.Forest.Loops) == 0 {
		t.Fatal("no loops")
	}
	for _, l := range st.Forest.Loops {
		if !slices.Contains(st.SSA.Func.Blocks, l.Header) {
			t.Errorf("loop %s's header is not a block of the returned program", l.Label)
		}
	}
}

// flipSeven is a TierSSA rewrite that changes the stored constant 7 to
// 8 once: it passes ssa.Verify and fails validation.
func flipSeven() engine.TransformPass {
	return engine.TransformPass{Name: "flip", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) {
			for _, b := range st.SSA.Func.Blocks {
				for _, v := range b.Values {
					if v.Op == ir.OpConst && v.Const == 7 {
						v.Const = 8
						return 1, nil
					}
				}
			}
			return 0, nil
		}}
}

func boom() engine.TransformPass {
	return engine.TransformPass{Name: "boom", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) { panic("boom") }}
}

const storeSeven = `L1: for i = 1 to 3 {
    a[i] = 7
}
`

// phaseOf returns the phase of err's *engine.Error.
func phaseOf(t *testing.T, err error) *engine.Error {
	t.Helper()
	var ee *engine.Error
	if !errors.As(err, &ee) {
		t.Fatalf("want *engine.Error, got %T: %v", err, err)
	}
	return ee
}

// TestFirstFailingCheckWins: pass A's check fails, then pass B panics.
// Serial order never runs B; beside the pipeline B runs while A's
// check waits, and A's failure must still be the error.
func TestFirstFailingCheckWins(t *testing.T) {
	for _, par := range []int{1, 2} {
		reg := metrics.NewRegistry()
		e := optEngine(engine.Config{Parallel: par, Metrics: reg}, flipSeven(), boom())
		res, err := e.Optimize(storeSeven)
		if res != nil || err == nil {
			t.Fatalf("Parallel %d: a failing check must fail Optimize", par)
		}
		if ee := phaseOf(t, err); ee.Phase != "xform.flip.validate" {
			t.Fatalf("Parallel %d: phase %q (%v), want xform.flip.validate", par, ee.Phase, err)
		}
		if n := reg.Counter("xform.flip.validate.fail"); n != 1 {
			t.Errorf("Parallel %d: xform.flip.validate.fail = %d, want 1", par, n)
		}
		if n := reg.Counter("engine.opt.validations"); n != 1 {
			t.Errorf("Parallel %d: engine.opt.validations = %d, want 1", par, n)
		}
	}
}

// stripIndex is a TierSSA rewrite that leaves a load with no index:
// the program still passes ssa.Verify and the analyses, but no
// interpreter can execute it.
func stripIndex() engine.TransformPass {
	return engine.TransformPass{Name: "strip", Tier: engine.TierSSA,
		Run: func(st *engine.State) (int, error) {
			for _, b := range st.SSA.Func.Blocks {
				for _, v := range b.Values {
					if v.Op == ir.OpLoadElem && len(v.Args) > 0 {
						v.Args = nil
						return 1, nil
					}
				}
			}
			return 0, nil
		}}
}

// TestValidationContained: nothing a check meets escapes Optimize. A
// program the interpreter cannot execute fails its check; a panic in a
// check (injected on entry to the check's phase) becomes the check's
// *Error with a stack, counted as a failed validation and a fault.
func TestValidationContained(t *testing.T) {
	optimize := func(e *engine.Engine, src string) (err error) {
		defer func() {
			if v := recover(); v != nil {
				err = fmt.Errorf("panic escaped Optimize: %v", v)
			}
		}()
		_, err = e.Optimize(src)
		return err
	}
	for _, par := range []int{1, 2} {
		runs := map[string]int{}
		e := engine.New(engine.Config{Passes: fullPasses(runs), Transforms: []engine.TransformPass{stripIndex()}, Parallel: par})
		err := optimize(e, "y = 1\nx = b[y]\n")
		if ee := phaseOf(t, err); ee.Phase != "xform.strip.validate" {
			t.Fatalf("Parallel %d: %v, want phase xform.strip.validate", par, err)
		}

		reg := metrics.NewRegistry()
		e = optEngine(engine.Config{Parallel: par, Metrics: reg, Limits: guard.Limits{Inject: guard.PanicIn("xform.noise.validate")}}, noiseConst())
		ee := phaseOf(t, optimize(e, src))
		if ee.Phase != "xform.noise.validate" || ee.Stack == nil {
			t.Fatalf("Parallel %d: %v (stack %t), want a contained panic in xform.noise.validate", par, ee, ee.Stack != nil)
		}
		for name, want := range map[string]int64{"xform.noise.validate.fail": 1, "engine.fault.xform.noise.validate": 1} {
			if n := reg.Counter(name); n != want {
				t.Errorf("Parallel %d: %s = %d, want %d", par, name, n, want)
			}
		}
	}
}

// probe is a pass that rewrites nothing and records how many
// goroutines the process runs while the pipeline goes on.
func probe(seen *[]int) engine.TransformPass {
	return engine.TransformPass{Name: "probe", Tier: engine.TierMark, NoAnalyses: true,
		Run: func(*engine.State) (int, error) {
			*seen = append(*seen, runtime.NumGoroutine())
			return 0, nil
		}}
}

// TestCheckerFollowsWidth: at Parallel 1 checks run inline and no
// goroutine starts; at 2 one checker runs beside the pipeline.
func TestCheckerFollowsWidth(t *testing.T) {
	for _, c := range []struct{ par, extra int }{{1, 0}, {2, 1}} {
		var seen []int
		e := optEngine(engine.Config{Parallel: c.par}, noiseConst(), probe(&seen))
		base := runtime.NumGoroutine()
		if _, err := e.Optimize(src); err != nil {
			t.Fatal(err)
		}
		// The probe runs after the noise rewrite's check was made, in
		// both rounds.
		if len(seen) != 2 || seen[0] != base+c.extra || seen[1] != base+c.extra {
			t.Errorf("Parallel %d: goroutines %v during Optimize, want %d", c.par, seen, base+c.extra)
		}
	}
}

// TestCheckerJoinedOnEveryPath: 200 Optimize calls at width 2 that
// succeed, fail validation, contain a panic or are cancelled mid-run
// leave no goroutine behind.
func TestCheckerJoinedOnEveryPath(t *testing.T) {
	base := runtime.NumGoroutine()
	cancelling := func(cancel context.CancelFunc) engine.TransformPass {
		return engine.TransformPass{Name: "cancel", Tier: engine.TierMark, NoAnalyses: true,
			Run: func(*engine.State) (int, error) { cancel(); return 0, nil }}
	}
	ok := optEngine(engine.Config{Parallel: 2}, noiseConst())
	fail := optEngine(engine.Config{Parallel: 2}, flipSeven())
	panics := optEngine(engine.Config{Parallel: 2}, noiseConst(), boom())
	for i := 0; i < 200; i++ {
		var err error
		var want string
		switch i % 4 {
		case 0:
			_, err = ok.Optimize(src)
		case 1:
			_, err = fail.Optimize(storeSeven)
			want = "xform.flip.validate"
		case 2:
			_, err = panics.Optimize(src)
			want = "xform.boom"
		case 3:
			ctx, cancel := context.WithCancel(context.Background())
			e := optEngine(engine.Config{Parallel: 2}, noiseConst(), cancelling(cancel), noiseConst())
			_, err = e.OptimizeContext(ctx, src)
			cancel()
			want = "xform.noise"
		}
		if want == "" {
			if err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
			continue
		}
		if ee := phaseOf(t, err); ee.Phase != want {
			t.Fatalf("call %d: phase %q (%v), want %q", i, ee.Phase, err, want)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after 200 calls, %d before", n, base)
	}
}
