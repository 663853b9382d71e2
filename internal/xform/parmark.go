package xform

import (
	"fmt"

	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
)

// parmark — the annotation pass that promotes depend.Parallelizable
// from a report line into an artifact the execution backend acts on.
//
// A loop is marked parallel when all of the following hold:
//
//   - the §6 dependence tester proves no flow/anti/output dependence is
//     carried by the loop (depend.Parallelizable);
//   - no loop-carried *scalar* state exists either: every header φ other
//     than the loop counter's is unused inside the loop (a body use of a
//     header φ is exactly a read of a previous iteration's value — a
//     scalar recurrence the array-dependence tester cannot see);
//   - the loop is a counted `for` in the chunkable syntactic shape
//     (interp.ParChunkable), so the mark is a promise the executor can
//     actually keep;
//   - the loop's effective label is unambiguous (labels are the key the
//     mark travels under).
//
// The pass runs at engine.TierMark: it rewrites nothing, so the engine
// skips cloning, re-analysis and per-pass translation validation, and
// instead validates the final marks after the fixed point by running
// the marked loops chunked across goroutines and comparing against the
// sequential interpreter byte for byte. The rewrite count is the
// symmetric difference against the previous round's marks, so the fixed
// point converges once the restructuring passes stop changing the loop
// structure.
func runParmark(st *engine.State) (int, error) {
	deps := depend.ResultOf(st)
	if deps == nil {
		// Pipeline without the dependence pass: nothing is provable, and
		// that is a no-op, not an error — Optimize with SkipDependences
		// still runs the classic scalar pipeline.
		return 0, nil
	}

	infoByHeader := make(map[*ir.Block]cfgbuild.LoopInfo, len(st.CFG.Loops))
	labelCount := map[string]int{}
	for _, li := range st.CFG.Loops {
		infoByHeader[li.Header] = li
		labelCount[li.Label]++
	}
	chunkable := map[string]bool{}
	for f, lbl := range cfgbuild.ForLabels(st.File) {
		if interp.ParChunkable(f) {
			chunkable[lbl] = true
		}
	}

	marks := engine.ParMarks{}
	for _, l := range st.Forest.Loops {
		li, ok := infoByHeader[l.Header]
		if !ok || li.Var == "" || l.Label == "" {
			continue // not a counted for-loop
		}
		if labelCount[l.Label] != 1 || !chunkable[l.Label] {
			continue
		}
		if ok, blocking := depend.Parallelizable(deps, l); !ok {
			st.Obs().Decide(l.Label, "parmark.blocked",
				fmt.Sprintf("%d carried dependences", len(blocking)))
			continue
		}
		if phi := carriedScalarUse(st, l, li.Var); phi != "" {
			st.Obs().Decide(l.Label, "parmark.blocked",
				fmt.Sprintf("carried scalar recurrence through %s", phi))
			continue
		}
		marks[l.Label] = true
		st.Obs().Decide(l.Label, "parmark.marked",
			"no carried array dependence, no carried scalar, chunkable shape")
	}

	prev := engine.ParMarksOf(st)
	n := 0
	for lbl := range marks {
		if !prev[lbl] {
			n++
		}
	}
	for lbl := range prev {
		if !marks[lbl] {
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	st.Put(engine.ParMarksKey, marks)
	st.Add("engine.xform.parmark.marked", int64(len(marks)))
	chargeBudget(st, "parmark", n)
	return n, nil
}

// carriedScalarUse returns the source name of a non-counter header φ
// that is read inside the loop — a loop-carried scalar recurrence that
// makes concurrent iterations unsafe — or "" when none exists. A φ
// whose carried arguments are all the φ itself is invariant through the
// loop and harmless; a φ that is only read *after* the loop is the
// last-writer-wins case the chunk merge reproduces exactly.
func carriedScalarUse(st *engine.State, l *loops.Loop, counter string) string {
	for _, p := range l.Header.Values {
		if p.Op != ir.OpPhi || st.SSA.VarOf(p) == counter {
			continue
		}
		invariant := true
		for i, arg := range p.Args {
			if l.Contains(p.Block.Preds[i]) && arg != p {
				invariant = false
				break
			}
		}
		if invariant {
			continue
		}
		for _, b := range l.Blocks {
			if b.Control == p {
				return displayName(st, p)
			}
			for _, u := range b.Values {
				if u == p {
					continue
				}
				for _, a := range u.Args {
					if a == p {
						return displayName(st, p)
					}
				}
			}
		}
	}
	return ""
}

func displayName(st *engine.State, v *ir.Value) string {
	if n := st.SSA.VarOf(v); n != "" {
		return n
	}
	return fmt.Sprintf("v%d", v.ID)
}
