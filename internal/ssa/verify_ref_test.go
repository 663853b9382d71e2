package ssa_test

import (
	"fmt"

	"beyondiv/internal/ir"
	"beyondiv/internal/ssa"
)

// verifyRef is Verify as it was before the position index, verbatim:
// the same-block test scans the block. TestVerifyMatchesReference holds
// Verify to its errors, in order.
func verifyRef(info *ssa.Info) []error {
	f, tree := info.Func, info.Dom
	var errs []error
	defBlock := make([]*ir.Block, f.NumValues())
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			defBlock[v.ID] = b
		}
	}
	defOf := func(v *ir.Value) *ir.Block {
		if v.ID >= 0 && v.ID < len(defBlock) {
			return defBlock[v.ID]
		}
		return nil
	}
	for _, b := range f.Blocks {
		if !tree.Reachable(b) {
			continue
		}
		for _, v := range b.Values {
			switch v.Op {
			case ir.OpLoadVar, ir.OpStoreVar:
				errs = append(errs, fmt.Errorf("%s: scalar %s survived SSA construction", v, v.Op))
				continue
			case ir.OpPhi:
				if len(v.Args) != len(b.Preds) {
					errs = append(errs, fmt.Errorf("%s: φ has %d args for %d preds", v, len(v.Args), len(b.Preds)))
					continue
				}
				for i, a := range v.Args {
					if a == nil {
						errs = append(errs, fmt.Errorf("%s: φ arg %d is nil", v, i))
						continue
					}
					d := defOf(a)
					if d == nil {
						errs = append(errs, fmt.Errorf("%s: φ arg %s has no defining block", v, a))
						continue
					}
					if !tree.Dominates(d, b.Preds[i]) {
						errs = append(errs, fmt.Errorf("%s: φ arg %s (def in %s) does not dominate pred %s", v, a, d, b.Preds[i]))
					}
				}
				continue
			}
			for _, a := range v.Args {
				d := defOf(a)
				if d == nil {
					errs = append(errs, fmt.Errorf("%s: arg %s has no defining block", v, a))
					continue
				}
				if d == b {
					// Same block: definition must precede use.
					if !precedes(b, a, v) {
						errs = append(errs, fmt.Errorf("%s: same-block use before def of %s", v, a))
					}
				} else if !tree.Dominates(d, b) {
					errs = append(errs, fmt.Errorf("%s: use not dominated by def of %s (in %s)", v, a, d))
				}
			}
		}
		if c := b.Control; c != nil {
			if d := defOf(c); d == nil || (d != b && !tree.Dominates(d, b)) {
				errs = append(errs, fmt.Errorf("%s: control %s not dominated by its def", b, c))
			}
		}
	}
	return errs
}

func precedes(b *ir.Block, a, v *ir.Value) bool {
	for _, w := range b.Values {
		if w == a {
			return true
		}
		if w == v {
			return false
		}
	}
	return false
}
