package iv

import (
	"beyondiv/internal/ir"
	"beyondiv/internal/matrix"
	"beyondiv/internal/rational"
	"beyondiv/internal/scc"
	"beyondiv/internal/scratch"
)

// classifyScratch is the classifier's slot in the per-run scratch
// arena: every working table the per-loop SSA-graph classification
// needs, dense-indexed by value id or graph-node id, reused across
// loops within a run and across runs on the same arena. All tables are
// sized and reset on acquisition (or stamped), so a recycled arena —
// even one abandoned mid-run by a contained panic — can never leak
// state into a later classification.
type classifyScratch struct {
	scc scc.Scratch

	// Value-id-indexed node lookup (the old idx/exitI maps): an entry
	// is live only when its gen stamp matches, so switching loops is a
	// counter bump instead of a table clear.
	idx      []int32
	idxGen   []uint32
	exitI    []int32
	exitIGen []uint32
	gen      uint32

	nodes []node
	edges []int       // shared succ backing, carved full-cap per node
	terms []*ir.Value // sort buffer for wiring and exprClsLocal
	cls   []*Classification

	exitOK []int8 // guard-check memo: 0 unseen, 1 proven, 2 refuted

	// SCR membership stamps (classifySCR) and the linear-family side
	// tables (tryLinearFamily); entries are reset per component.
	sccStamp   []int
	curStamp   int
	headers    []int
	famOffsets []*Expr
	famState   []uint8

	// Per-SCR working tables, node-indexed, reset per component by
	// their consumers: tryPeriodic (next/phase/phaseSet), tryCumulative
	// (symVals/symState, series), tryMonotonic (ranges/rngState),
	// tryMonotonicGrowth (growths/grState).
	next     []int
	phase    []int
	phaseSet []bool
	symVals  []*symVal
	symState []uint8
	series   [][]rational.Rat
	ranges   []*valRange
	rngState []uint8
	growths  []growth
	grState  []uint8

	// markCarried's members (cands), the bits of those each loop block
	// is reached from (block-id-indexed) and each node is computed from
	// (node-indexed), and its walk stack.
	cands   []int
	reached []uint64
	from    []uint64
	blocks  []*ir.Block

	// inverses memoizes the solved Vandermonde-style systems of
	// solveClosedForm, keyed by their full shape. The inverse of a given
	// system is a pure function of the key, so entries never need
	// invalidation and persist across loops and runs on the same arena;
	// a nil entry remembers a singular system. Closed-form fits repeat
	// the same few shapes constantly, so this turns the per-member
	// build-invert cycle (~6 allocations) into one vector multiply.
	inverses map[invKey]*matrix.Matrix
}

// invKey identifies one closed-form system: sample count, geometric
// base (0 for pure polynomial fits), and which family builds it.
type invKey struct {
	n    int
	base int64
	geo  bool
}

// inverseOf returns the memoized inverse for key, computing it with
// build on first use. Singular systems memoize as nil.
func (s *classifyScratch) inverseOf(key invKey, build func() *matrix.Matrix) *matrix.Matrix {
	if inv, ok := s.inverses[key]; ok {
		return inv
	}
	inv, err := build().Inverse()
	if err != nil {
		inv = nil
	}
	if s.inverses == nil {
		s.inverses = make(map[invKey]*matrix.Matrix)
	}
	s.inverses[key] = inv
	return inv
}

// sizeValueTables readies the value-id-indexed lookup for one loop:
// grows the four arrays to the function's value-id bound and bumps the
// generation, invalidating the previous loop's entries in O(1).
func (s *classifyScratch) sizeValueTables(nv int) {
	if cap(s.idxGen) < nv {
		s.idx = make([]int32, nv)
		s.idxGen = make([]uint32, nv)
		s.exitI = make([]int32, nv)
		s.exitIGen = make([]uint32, nv)
	} else {
		s.idx = s.idx[:nv]
		s.idxGen = s.idxGen[:nv]
		s.exitI = s.exitI[:nv]
		s.exitIGen = s.exitIGen[:nv]
	}
	s.gen++
}

// sizeNodeTables readies every node-indexed table for a loop with n
// graph nodes. Tables whose consumers reset per component only need
// length here; cls and exitOK carry per-loop state and are zeroed.
func (s *classifyScratch) sizeNodeTables(n int) {
	s.cls = scratch.Grow(s.cls, n)
	s.exitOK = scratch.Grow(s.exitOK, n)
	s.series = scratch.GrowReuse(s.series, n)
	if cap(s.next) >= n {
		s.next = s.next[:n]
		s.phase = s.phase[:n]
		s.phaseSet = s.phaseSet[:n]
		s.symVals = s.symVals[:n]
		s.symState = s.symState[:n]
		s.ranges = s.ranges[:n]
		s.rngState = s.rngState[:n]
		s.growths = s.growths[:n]
		s.grState = s.grState[:n]
		s.famOffsets = s.famOffsets[:n]
		s.famState = s.famState[:n]
		s.sccStamp = s.sccStamp[:n]
		return
	}
	s.next = make([]int, n)
	s.phase = make([]int, n)
	s.phaseSet = make([]bool, n)
	s.symVals = make([]*symVal, n)
	s.symState = make([]uint8, n)
	s.ranges = make([]*valRange, n)
	s.rngState = make([]uint8, n)
	s.growths = make([]growth, n)
	s.grState = make([]uint8, n)
	s.famOffsets = make([]*Expr, n)
	s.famState = make([]uint8, n)
	s.sccStamp = make([]int, n)
}

// idxOf returns the graph-node index of a direct loop member.
func (ctx *loopCtx) idxOf(v *ir.Value) (int, bool) {
	s := ctx.scr
	if v.ID < len(s.idxGen) && s.idxGen[v.ID] == s.gen {
		return int(s.idx[v.ID]), true
	}
	return 0, false
}

func (ctx *loopCtx) setIdx(v *ir.Value, id int) {
	s := ctx.scr
	s.idx[v.ID] = int32(id)
	s.idxGen[v.ID] = s.gen
}

// exitNodeOf returns the synthetic exit node standing for an inner-loop
// value, when one has been created.
func (ctx *loopCtx) exitNodeOf(v *ir.Value) (int, bool) {
	s := ctx.scr
	if v.ID < len(s.exitIGen) && s.exitIGen[v.ID] == s.gen {
		return int(s.exitI[v.ID]), true
	}
	return 0, false
}

func (ctx *loopCtx) setExitNode(v *ir.Value, id int) {
	s := ctx.scr
	s.exitI[v.ID] = int32(id)
	s.exitIGen[v.ID] = s.gen
}

// nodeOf resolves a value to its graph node, direct member or exit
// node — the combined lookup every SCR rule uses on operands.
func (ctx *loopCtx) nodeOf(v *ir.Value) (int, bool) {
	if id, ok := ctx.idxOf(v); ok {
		return id, true
	}
	return ctx.exitNodeOf(v)
}
