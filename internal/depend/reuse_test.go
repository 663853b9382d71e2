package depend_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/iv"
	"beyondiv/internal/obs"
	"beyondiv/internal/xform"
)

const reusedCounter = "depend.verdict.reused"

// optimizer is the engine behind the facade's Analyzer.Optimize: the
// frontend, the classifier and the dependence pass, then every
// registered transform by name, with translation validation on. That
// includes normalize, which the default pipeline leaves out, so the
// re-analysis after a normalize rewrite stays covered (DESIGN.md §17).
func optimizer(t *testing.T, width int, rec *obs.Recorder) *engine.Engine {
	t.Helper()
	transforms, err := xform.Passes(xform.PassNames())
	if err != nil {
		t.Fatal(err)
	}
	return engine.New(engine.Config{
		Passes:     append(engine.Frontend(), iv.ClassifyPass(iv.Options{}), depend.Pass(depend.Options{})),
		Transforms: transforms,
		Parallel:   width,
		Obs:        rec,
	})
}

// explainAll renders every dependence's provenance, as the facade's
// ExplainAllDeps does.
func explainAll(r *depend.Result) string {
	var parts []string
	for _, d := range r.Deps {
		parts = append(parts, r.Explain(d))
	}
	return strings.Join(parts, "\n")
}

// sameResult reports how got differs from want, or "".
func sameResult(got, want *depend.Result) string {
	switch {
	case got.Report() != want.Report():
		return fmt.Sprintf("report\n--- got ---\n%s--- want ---\n%s", got.Report(), want.Report())
	case explainAll(got) != explainAll(want):
		return "ExplainAllDeps"
	case got.Independent != want.Independent || len(got.Deps) != len(want.Deps):
		return fmt.Sprintf("%d deps, %d independent; want %d, %d", len(got.Deps), got.Independent, len(want.Deps), want.Independent)
	}
	for i, g := range got.Deps {
		w := want.Deps[i]
		if !slices.Equal(g.Dirs, w.Dirs) || !slices.Equal(g.Distance, w.Distance) ||
			(g.Distance == nil) != (w.Distance == nil) || g.Method != w.Method || g.Equation != w.Equation {
			return fmt.Sprintf("dependence %d: %v %v %q %q; want %v %v %q %q",
				i, g.Dirs, g.Distance, g.Method, g.Equation, w.Dirs, w.Distance, w.Method, w.Equation)
		}
	}
	return ""
}

// stepsOf reports the budget steps one dependence analysis of st's
// classification charges at the given width, reusing prev's verdicts
// (nil: none).
func stepsOf(st *engine.State, prev *depend.Result, width int) int64 {
	pool := guard.NewPool(1 << 60)
	depend.AnalyzeAfter(iv.AnalysisOf(st), depend.Options{}, prev, guard.Limits{Pool: pool}, width)
	return pool.Limit() - pool.Remaining()
}

// TestReuseMatchesFresh: after validated Optimize, whose re-analyses
// reuse the verdicts of the analyses they replace, the final program's
// dependences equal a fresh analysis of its classification, at every
// fan-out width. The reuse count of each Optimize is the same at
// widths 1, 2 and 4 — the previous table is frozen for the whole run,
// so which tests hit cannot depend on scheduling. Rerunning the pass
// on the unchanged final state, with its own result as the previous
// one, solves nothing afresh, and charges the budget steps a fresh
// analysis charges.
func TestReuseMatchesFresh(t *testing.T) {
	srcs := depend.HarvestSources(t)
	widths := []int{1, 2, 4}
	counts := make([][]int64, len(widths))
	for wi, width := range widths {
		rec := obs.NewWithClock(nil, nil)
		eng := optimizer(t, width, rec)
		for i, src := range srcs {
			before := rec.Counter(reusedCounter)
			res, err := eng.Optimize(src)
			if err != nil {
				t.Fatalf("width %d, source %d: %v", width, i, err)
			}
			counts[wi] = append(counts[wi], rec.Counter(reusedCounter)-before)
			if width == 2 {
				continue
			}
			st := res.State
			last := depend.ResultOf(st)
			fresh := depend.Analyze(iv.AnalysisOf(st), depend.Options{})
			if diff := sameResult(last, fresh); diff != "" {
				t.Fatalf("width %d, source %d: optimized result differs from a fresh analysis: %s\n%s", width, i, diff, src)
			}

			// The rerun counts into the state's own recorder: the fork
			// its Optimize recorded into, absorbed into rec already.
			before = st.Obs().Counter(reusedCounter)
			if err := depend.Pass(depend.Options{}).Run(st); err != nil {
				t.Fatal(err)
			}
			again := depend.ResultOf(st)
			hits := st.Obs().Counter(reusedCounter) - before
			solved, total := depend.SolvedAfresh(again, last)
			if solved != 0 || hits < int64(total) {
				t.Fatalf("width %d, source %d: rerun solved %d of %d verdicts afresh, reused %d", width, i, solved, total, hits)
			}
			if diff := sameResult(again, fresh); diff != "" {
				t.Fatalf("width %d, source %d: rerun differs from a fresh analysis: %s", width, i, diff)
			}
			if want, got := stepsOf(st, nil, width), stepsOf(st, again, width); got != want {
				t.Fatalf("width %d, source %d: reuse charged %d budget steps, a fresh analysis %d", width, i, got, want)
			}
		}
	}
	var total int64
	for i := range srcs {
		if counts[0][i] != counts[1][i] || counts[0][i] != counts[2][i] {
			t.Errorf("source %d: %s %d, %d, %d at widths 1, 2, 4", i, reusedCounter, counts[0][i], counts[1][i], counts[2][i])
		}
		total += counts[0][i]
	}
	if total == 0 {
		t.Fatalf("no Optimize reused a verdict over %d programs", len(srcs))
	}
	t.Logf("%d programs, %d verdicts reused per width", len(srcs), total)
}
