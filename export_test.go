package beyondiv

import "beyondiv/internal/ast"

// RaceEnabled is raceEnabled for the external test package.
const RaceEnabled = raceEnabled

// StoredArrays is storedArrays for the external test package.
var StoredArrays = storedArrays

// OptimizeAST is Optimize that also returns the transformed AST, which
// the facade keeps to itself: the equivalence matrix runs it chunked
// under the result's ParallelLoops.
func (a *Analyzer) OptimizeAST(source string) (*OptimizeResult, *ast.File, error) {
	res, err := a.eng.Optimize(source)
	if err != nil {
		return nil, nil, err
	}
	return optimizeResultOf(res), res.State.File, nil
}
