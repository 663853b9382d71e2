package ssa

import (
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
)

// VerifyWork is the work Verify spends on info: the value, argument and
// block slots it visits.
func VerifyWork(info *Info) int {
	_, work := verify(info)
	return work
}

// BuildMoveWork is Build, also returning the slots its φ move touched.
func BuildMoveWork(f *ir.Func) (*Info, int) {
	scr := &buildScratch{}
	info := build(f, nil, guard.Limits{}, scr)
	return info, scr.moveWork
}
