package depend

import (
	"testing"

	"beyondiv/internal/guard"
	"beyondiv/internal/iv"
)

// Hooks for the external tests in package depend_test.

// HarvestSources is every program the differential tests run.
func HarvestSources(t *testing.T) []string { return harvestSources(t) }

// AnalyzeAfter is Analyze under lim at fan-out width workers, reusing
// prev's verdicts.
func AnalyzeAfter(a *iv.Analysis, opts Options, prev *Result, lim guard.Limits, workers int) *Result {
	return analyzeRun(a, opts, prev, nil, lim, nil, workers)
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
