package interp

import (
	"fmt"

	"beyondiv/internal/ir"
	"beyondiv/internal/ssa"
)

// RunSSAHookedRef is RunSSAHooked as it stood before programs were
// compiled (Compile), verbatim: it walks the IR on every run, records
// named values in a string-keyed map and keeps array cells in nested
// maps. TestCompiledMatchesReference holds the compiled form to its
// results, error texts, hook sequences and step counts.
func RunSSAHookedRef(info *ssa.Info, cfg Config, hooks Hooks) (*Result, error) {
	f := info.Func
	mem := newMemory(cfg.arrays())
	vals := make([]int64, f.NumValues())
	scalars := map[string]int64{}
	limit := cfg.maxSteps()
	steps := 0

	// Record the final value of each named definition.
	record := func(v *ir.Value, x int64) {
		vals[v.ID] = x
		if name := info.VarOf(v); name != "" {
			scalars[name] = x
		}
		if hooks.OnEval != nil {
			hooks.OnEval(v, x)
		}
	}

	block := f.Entry
	var prev *ir.Block
	for block != nil {
		if hooks.OnBlock != nil {
			hooks.OnBlock(block)
		}
		// φs read their inputs simultaneously on entry.
		var phiVals []int64
		for _, v := range block.Values {
			if v.Op != ir.OpPhi {
				break
			}
			slot := block.PredIndexOf(prev)
			if slot < 0 {
				return nil, fmt.Errorf("interp: φ %s executed with unknown predecessor %v", v, prev)
			}
			phiVals = append(phiVals, vals[v.Args[slot].ID])
		}
		phiIdx := 0
		for _, v := range block.Values {
			steps++
			if steps > limit {
				return nil, ErrStepLimit
			}
			switch v.Op {
			case ir.OpPhi:
				record(v, phiVals[phiIdx])
				phiIdx++
			case ir.OpConst:
				record(v, v.Const)
			case ir.OpParam:
				record(v, cfg.Params[v.Var])
			case ir.OpCopy:
				record(v, vals[v.Args[0].ID])
			case ir.OpAdd:
				record(v, vals[v.Args[0].ID]+vals[v.Args[1].ID])
			case ir.OpSub:
				record(v, vals[v.Args[0].ID]-vals[v.Args[1].ID])
			case ir.OpMul:
				record(v, vals[v.Args[0].ID]*vals[v.Args[1].ID])
			case ir.OpDiv:
				record(v, evalDiv(vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpExp:
				record(v, evalExp(vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpNeg:
				record(v, -vals[v.Args[0].ID])
			case ir.OpLoadElem:
				record(v, mem.load(v.Var, vals[v.Args[0].ID]))
			case ir.OpStoreElem:
				x := vals[v.Args[1].ID]
				mem.store(v.Var, vals[v.Args[0].ID], x)
				record(v, x)
			case ir.OpLess:
				record(v, compare("<", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpLeq:
				record(v, compare("<=", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpGreater:
				record(v, compare(">", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpGeq:
				record(v, compare(">=", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpEq:
				record(v, compare("==", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			case ir.OpNeq:
				record(v, compare("!=", vals[v.Args[0].ID], vals[v.Args[1].ID]))
			default:
				return nil, fmt.Errorf("interp: cannot execute %s", v.LongString())
			}
		}
		prev = block
		switch block.Kind {
		case ir.BlockPlain:
			block = block.Succs[0]
		case ir.BlockIf:
			if vals[block.Control.ID] != 0 {
				block = block.Succs[0]
			} else {
				block = block.Succs[1]
			}
		case ir.BlockExit:
			block = nil
		}
	}
	return &Result{Scalars: scalars, Writes: mem.trace}, nil
}
