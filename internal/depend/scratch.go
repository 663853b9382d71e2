package depend

import (
	"beyondiv/internal/ir"
	"beyondiv/internal/rational"
)

// dependScratch is the dependence tester's slot in the per-run scratch
// arena: the value-id-indexed symbol accumulator buildEquation uses to
// cancel matching symbolic terms, and the exact solvers' buffers.
// Symbol entries are live only when their gen stamp matches, so
// starting a new equation is a counter bump instead of a table clear,
// and a recycled arena can never leak coefficients between pairs or
// runs.
type dependScratch struct {
	symCoeff []int64
	symGen   []uint32
	gen      uint32
	// symTouched collects the symbols seen by the current equation, in
	// first-touch order, so leftovers iterate deterministically.
	symTouched []*ir.Value
	// walk is the exact solver's state (see exact.go), reused by every
	// solve of the run.
	walk walk
	// polyB holds testPolynomial's B-side subscript values.
	polyB []rational.Rat
	// key holds the verdict key of the equation being tested.
	key []byte
}

// beginEquation invalidates all symbol entries and readies the touched
// list for one buildEquation call.
func (s *dependScratch) beginEquation() {
	s.gen++
	s.symTouched = s.symTouched[:0]
}

// symAccum adds delta to v's accumulated coefficient, first-touch
// initializing the slot. The dense tables grow on demand so values
// minted after analysis (e.g. by transformations) stay in bounds.
func (s *dependScratch) symAccum(v *ir.Value) *int64 {
	if v.ID >= len(s.symGen) {
		n := v.ID + 1
		if n < 2*len(s.symGen) {
			n = 2 * len(s.symGen)
		}
		coeff := make([]int64, n)
		gen := make([]uint32, n)
		copy(coeff, s.symCoeff)
		copy(gen, s.symGen)
		s.symCoeff, s.symGen = coeff, gen
	}
	if s.symGen[v.ID] != s.gen {
		s.symGen[v.ID] = s.gen
		s.symCoeff[v.ID] = 0
		s.symTouched = append(s.symTouched, v)
	}
	return &s.symCoeff[v.ID]
}
