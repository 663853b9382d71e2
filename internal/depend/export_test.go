package depend

import (
	"testing"

	"beyondiv/internal/iv"
)

// Hooks for the external tests in package depend_test.

// HarvestSources is every program the differential tests run.
func HarvestSources(t *testing.T) []string { return harvestSources(t) }

// AnalyzeAfter is Analyze reusing prev's verdicts.
func AnalyzeAfter(a *iv.Analysis, opts Options, prev *Result) *Result {
	return analyzeAfter(a, opts, prev)
}

// SolvedAfresh counts the verdicts in r's table that r's run solved
// itself instead of reusing prev's (prev may be nil), and the table's
// size.
func SolvedAfresh(r, prev *Result) (solved, total int) {
	for key, v := range r.verdicts {
		if prev == nil || prev.verdicts[key] != v {
			solved++
		}
	}
	return solved, len(r.verdicts)
}
