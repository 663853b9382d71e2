package harness

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"beyondiv"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// The traced run's per-layer numbers describe the end-to-end pipeline
// only if the traced engine computes exactly what the facade computes.
// These tests pin that: byte-identical reports, provenance and Optimize
// results over the paper corpus and generated programs.

type rendering struct {
	class, deps, explainDeps, reportJSON string
	explains                             []string
}

func renderFacade(t *testing.T, p *beyondiv.Program) rendering {
	js, err := json.Marshal(p.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	r := rendering{class: p.ClassificationReport(), deps: p.DependenceReport(), explainDeps: p.ExplainAllDeps(), reportJSON: string(js)}
	for _, k := range p.IV.ExplainKeys() {
		r.explains = append(r.explains, k+"\x00"+p.Explain(k))
	}
	return r
}

func renderEngine(t *testing.T, st *engine.State) rendering {
	a, d := iv.AnalysisOf(st), depend.ResultOf(st)
	js, err := json.Marshal(a.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	var explainDeps []string
	for _, dep := range d.Deps {
		explainDeps = append(explainDeps, d.Explain(dep))
	}
	r := rendering{class: a.Report(), deps: d.Report(), explainDeps: strings.Join(explainDeps, "\n"), reportJSON: string(js)}
	for _, k := range a.ExplainKeys() {
		r.explains = append(r.explains, k+"\x00"+a.ExplainVar(k))
	}
	return r
}

func equivalenceSources(t *testing.T, generated int) []string {
	var srcs []string
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	gen := progen.New()
	for s := int64(0); s < int64(generated); s++ {
		srcs = append(srcs, gen.Program(s), progen.DepWorkload(s))
	}
	return srcs
}

func TestTracedEngineMatchesFacadeAnalyze(t *testing.T) {
	tr := newTracer(0)
	eng := tracedEngine(tr, 0, false, nil)
	an := beyondiv.NewAnalyzer(beyondiv.Options{})
	for i, src := range equivalenceSources(t, 40) {
		want, err := an.Analyze(src)
		if err != nil {
			t.Fatalf("source %d: facade: %v", i, err)
		}
		var st *engine.State
		_, kids := tr.runOp("analyze", func() { st, err = eng.Analyze(src) })
		if err != nil {
			t.Fatalf("source %d: traced engine: %v", i, err)
		}
		var names []string
		for _, k := range kids {
			names = append(names, k.Name)
		}
		if !slices.Equal(names, analysisLayers) {
			t.Fatalf("source %d: traced spans %v, want one per pass %v", i, names, analysisLayers)
		}
		if got, w := renderEngine(t, st), renderFacade(t, want); !slices.Equal(got.explains, w.explains) ||
			got.class != w.class || got.deps != w.deps || got.explainDeps != w.explainDeps || got.reportJSON != w.reportJSON {
			t.Errorf("source %d: traced engine rendering differs from the facade's", i)
		}
	}
}

func TestTracedEngineMatchesFacadeOptimize(t *testing.T) {
	check := func(t *testing.T, srcs []string, skipValidation bool) {
		tr := newTracer(0)
		eng := tracedEngine(tr, 0, skipValidation, nil)
		an := beyondiv.NewAnalyzer(beyondiv.Options{SkipValidation: skipValidation})
		for i, src := range srcs {
			want, err := an.Optimize(src)
			if err != nil {
				t.Fatalf("source %d: facade: %v", i, err)
			}
			got, err := eng.Optimize(src)
			if err != nil {
				t.Fatalf("source %d: traced engine: %v", i, err)
			}
			if got.Rounds != want.Rounds || got.Rewrites != want.Rewrites || got.Validations != want.Validations ||
				!slices.Equal(got.Stats, want.Stats) || !slices.Equal(got.ParallelLoops, want.ParallelLoops) {
				t.Errorf("source %d: Optimize outcome differs: rounds %d/%d rewrites %d/%d validations %d/%d",
					i, got.Rounds, want.Rounds, got.Rewrites, want.Rewrites, got.Validations, want.Validations)
			}
			g, w := renderEngine(t, got.State), renderFacade(t, want.Program)
			if g.class != w.class || g.deps != w.deps || !slices.Equal(g.explains, w.explains) {
				t.Errorf("source %d: optimized program's rendering differs from the facade's", i)
			}
		}
	}
	var paperSrcs []string
	for _, p := range paper.Corpus {
		paperSrcs = append(paperSrcs, p.Source)
	}
	t.Run("paper/validated", func(t *testing.T) { check(t, paperSrcs, false) })
	var deps []string
	for s := int64(0); s < 20; s++ {
		deps = append(deps, progen.DepWorkload(optimizeBase+s))
	}
	t.Run("dep/validated", func(t *testing.T) { check(t, deps, false) })
	// Validating the Tier-1 restructuring set's generated programs takes
	// tens of seconds; the transform pipeline itself is the same with and
	// without it.
	var gen []string
	g := progen.New()
	for s := int64(0); s < 12; s++ {
		gen = append(gen, g.Program(s))
	}
	t.Run("progen/unvalidated", func(t *testing.T) { check(t, gen, true) })
}
