package iv

import (
	"beyondiv/internal/engine"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
)

// ArtifactKey is the engine State slot ClassifyPass fills; read it
// back with AnalysisOf.
const ArtifactKey = "iv"

// AnalyzeProgram runs the full pipeline on mini-language source:
// parse → CFG → SSA → loop nest → constants → classification.
func AnalyzeProgram(src string) (*Analysis, error) {
	return AnalyzeProgramWith(src, Options{})
}

// AnalyzeProgramWith is AnalyzeProgram with the classifier's ablation
// switches.
//
// The pipeline executes on the analysis engine, so this entry point
// has the same safety contract as the beyondiv facade: every phase
// runs under the guard.Default ceilings with panic containment, and
// any failure returns as a *engine.Error naming the phase — hostile
// input cannot hang or crash the caller here any more than it can
// through the facade. Telemetry, other limits, cancellation and fault
// injection belong to the engine: build one with engine.New over
// Passes(opts).
func AnalyzeProgramWith(src string, opts Options) (*Analysis, error) {
	st, err := engine.New(engine.Config{Passes: Passes(opts)}).Analyze(src)
	if err != nil {
		return nil, err
	}
	return AnalysisOf(st), nil
}

// Passes is the classification pipeline: the engine frontend plus the
// classifier pass.
func Passes(opts Options) []engine.Pass {
	return append(engine.Frontend(), ClassifyPass(opts))
}

// ClassifyPass contributes the induction-variable classification to an
// engine pipeline, storing the *Analysis under ArtifactKey. The pass
// hands the classifier the run straight from the State — its
// recorder, limits and scratch arena — so batch workers and the facade
// configure telemetry, guards and table reuse in exactly one place,
// and the stored Analysis keeps none of them.
func ClassifyPass(opts Options) engine.Pass {
	return engine.Pass{Name: "iv", Run: func(st *engine.State) error {
		st.Put(ArtifactKey, analyzeRun(st.SSA, st.Forest, st.Consts, opts, st.Obs(), st.Lim(), st.Scratch()))
		return nil
	}}
}

// AnalysisOf returns the classification a ClassifyPass stored in st,
// or nil when the pass has not run.
func AnalysisOf(st *engine.State) *Analysis {
	a, _ := st.Artifact(ArtifactKey).(*Analysis)
	return a
}

// ValueByName finds the SSA value with the given name ("i2"), or nil.
// Lookups hit an index built at analysis construction; values created
// by later transformations (e.g. strength reduction) fall back to a
// scan.
func (a *Analysis) ValueByName(name string) *ir.Value {
	if v, ok := a.byName[name]; ok {
		return v
	}
	for _, b := range a.SSA.Func.Blocks {
		for _, v := range b.Values {
			if v.Name == name {
				return v
			}
		}
	}
	return nil
}

// LoopByLabel finds the loop labeled name ("L7"), or nil.
func (a *Analysis) LoopByLabel(label string) *loops.Loop {
	return a.byLabel[label]
}
