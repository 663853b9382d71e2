package xform

import (
	"fmt"
	"strings"

	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	"beyondiv/internal/scratch"
)

// This file packages the transformations as engine.TransformPass values
// so the engine's Optimize pipeline can run them with clone-on-transform,
// re-analysis, verification and translation validation. The pass names
// (in canonical order) are:
//
//	normalize    AST   §6.1 loop normalization (index from 0, step 1)
//	peel         AST   §4.1 first-iteration peeling, classification-driven:
//	                   only loops in which some value classified WrapAround
//	interchange  AST   §6.1 loop interchanging of perfect 2-nests, gated on
//	                   direction vectors (and the unimodular check when
//	                   exact distances exist); reorders the store trace
//	distribute   AST   loop distribution along statement-level π-blocks in
//	                   topological order; reorders the store trace
//	strength     SSA   §1 strength reduction by §5 induction-variable
//	                   substitution: every Mul, Div or Exp classified
//	                   Linear becomes an addition recurrence
//	dce          SSA   sweep of values no observable outcome depends on
//	parmark      MARK  annotate provably parallel loops for the chunked
//	                   execution backend (no rewrite; validated once after
//	                   the fixed point against the sequential interpreter)
//
// AST-tier passes precede SSA-tier ones so a round never discards SSA
// rewrites, and mark-tier passes come last so annotations always describe
// the final loop structure (see engine.Tier).

// PassNames returns the canonical pipeline order.
func PassNames() []string {
	return []string{"normalize", "peel", "interchange", "distribute", "strength", "dce", "parmark"}
}

// DefaultPasses returns the full pipeline in canonical order.
func DefaultPasses() []engine.TransformPass {
	ps, _ := Passes(PassNames())
	return ps
}

// Passes resolves pass names (in the given order) to the transform
// pipeline, erroring on an unknown name. Names are case-sensitive; see
// PassNames for the vocabulary.
func Passes(names []string) ([]engine.TransformPass, error) {
	out := make([]engine.TransformPass, 0, len(names))
	for _, n := range names {
		p, ok := passByName(n)
		if !ok {
			return nil, fmt.Errorf("xform: unknown pass %q (available: %s)",
				n, strings.Join(PassNames(), ", "))
		}
		out = append(out, p)
	}
	return out, nil
}

func passByName(name string) (engine.TransformPass, bool) {
	switch name {
	case "normalize":
		return engine.TransformPass{Name: "normalize", Tier: engine.TierAST, Run: func(st *engine.State) (int, error) {
			_, n := NormalizeProgram(st.File)
			chargeBudget(st, "normalize", n)
			return n, nil
		}}, true
	case "peel":
		return engine.TransformPass{Name: "peel", Tier: engine.TierAST, Run: runPeel}, true
	case "interchange":
		return engine.TransformPass{Name: "interchange", Tier: engine.TierAST, Reorders: true, Run: runInterchange}, true
	case "distribute":
		return engine.TransformPass{Name: "distribute", Tier: engine.TierAST, Reorders: true, Run: runDistribute}, true
	case "parmark":
		return engine.TransformPass{Name: "parmark", Tier: engine.TierMark, Run: runParmark}, true
	case "strength":
		return engine.TransformPass{Name: "strength", Tier: engine.TierSSA, Run: func(st *engine.State) (int, error) {
			a, err := analysisOf(st, "strength")
			if err != nil {
				return 0, err
			}
			n := ReduceStrengthScratch(a, xformScratch(st))
			chargeBudget(st, "strength", n)
			return n, nil
		}}, true
	case "dce":
		return engine.TransformPass{Name: "dce", Tier: engine.TierSSA, Run: func(st *engine.State) (int, error) {
			n := EliminateDeadCode(st.SSA)
			chargeBudget(st, "dce", n)
			return n, nil
		}}, true
	}
	return engine.TransformPass{}, false
}

// runPeel peels exactly the loops the classification flags: a loop is
// peeled when some value in it classified WrapAround, which is the
// paper's §4.1 recipe ("peel off the first iteration of the loop"). One
// peel lowers a wrap-around chain's order by one, so the fixed-point
// rounds converge once every chain bottoms out as Linear.
func runPeel(st *engine.State) (int, error) {
	a, err := analysisOf(st, "peel")
	if err != nil {
		return 0, err
	}
	want := map[string]bool{}
	for _, l := range a.Forest.InnerToOuter() {
		if l.Label == "" {
			continue
		}
		for _, cls := range a.LoopClassifications(l) {
			if cls.Kind == iv.WrapAround {
				want[l.Label] = true
				break
			}
		}
	}
	if len(want) == 0 {
		return 0, nil
	}
	_, n := PeelProgram(st.File, want)
	chargeBudget(st, "peel", n)
	return n, nil
}

// analysisOf fetches the classification artifact a transform consumes,
// with a diagnosable failure when the pipeline was assembled without
// iv.ClassifyPass.
func analysisOf(st *engine.State, pass string) (*iv.Analysis, error) {
	a := iv.AnalysisOf(st)
	if a == nil {
		return nil, fmt.Errorf("%s: no classification artifact in state (pipeline missing iv.ClassifyPass)", pass)
	}
	return a, nil
}

// xformScratch returns the arena's transform scratch slot, or nil for
// arena-less (one-shot) runs.
func xformScratch(st *engine.State) *Scratch {
	if ar := st.Scratch(); ar != nil {
		return scratch.Get[Scratch](&ar.Xform)
	}
	return nil
}

// chargeBudget draws one guarded step per rewrite from the pass's phase
// budget, so a pathological fixed-point interaction hits a limit error
// instead of burning unbounded work.
func chargeBudget(st *engine.State, pass string, n int) {
	if n > 0 {
		st.Lim().Budget("xform." + pass).Steps(int64(n))
	}
}
