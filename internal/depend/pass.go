package depend

import (
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
)

// ArtifactKey is the engine State slot Pass fills; read it back with
// ResultOf.
const ArtifactKey = "depend"

// Pass contributes the §6 dependence analysis to an engine pipeline.
// It consumes the classification stored by iv.ClassifyPass and stores
// the *Result under ArtifactKey, rethreading the run's recorder,
// limits, and scratch arena like every engine pass. A re-analysis
// (the engine rerunning the pass after a transform) reuses the affine
// verdicts of the Result it replaces. A sweep that fanned out is
// published: engine.par.depend.{runs,pairs}, gauge engine.par.workers.
func Pass(opts Options) engine.Pass {
	return engine.Pass{Name: "depend", Run: func(st *engine.State) error {
		r := analyzeRun(iv.AnalysisOf(st), opts, ResultOf(st), st.Obs(), st.Lim(), st.Scratch(), st.Par())
		if f := r.fanout; f.workers > 0 {
			st.Add("engine.par.depend.runs", 1)
			st.Add("engine.par.depend.pairs", int64(f.pairs))
			st.SetGauge("engine.par.workers", int64(f.workers))
		}
		st.Put(ArtifactKey, r)
		return nil
	}}
}

// ResultOf returns the dependence result a Pass stored in st, or nil
// when the pass has not run.
func ResultOf(st *engine.State) *Result {
	r, _ := st.Artifact(ArtifactKey).(*Result)
	return r
}
