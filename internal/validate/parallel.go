package validate

import (
	"errors"
	"fmt"

	"beyondiv/internal/ast"
	"beyondiv/internal/interp"
	"beyondiv/internal/ssa"
)

// Parallel checks the parallel execution backend against the sequential
// reference interpreter: for every grid assignment, running file with
// the marked loops chunked across workers goroutines must produce the
// byte-identical observable outcome — the same global store trace,
// element for element, and the exact same final scalar environment.
// This is strictly ExactOrder: the chunked executor's deterministic
// merge is *defined* to reconstruct the sequential interleaving, so any
// divergence at all means either the merge or the marking (a loop
// annotated parallel that is not) is wrong. info supplies the parameter
// names the grid enumerates; marks maps effective loop labels (see
// cfgbuild.ForLabels) to true.
func Parallel(info *ssa.Info, file *ast.File, marks map[string]bool, workers int, opts Options) error {
	if len(marks) == 0 {
		return nil
	}
	names := sortedKeys(info.Params)
	grid := opts.grid()
	runs := 1
	for range names {
		if runs > opts.maxRuns() {
			break
		}
		runs *= len(grid)
	}
	if runs > opts.maxRuns() {
		runs = opts.maxRuns()
	}

	params := map[string]int64{}
	for r := 0; r < runs; r++ {
		x := r
		for _, n := range names {
			params[n] = grid[x%len(grid)]
			x /= len(grid)
		}
		if err := compareParallelOnce(file, marks, workers, params, opts.maxSteps()); err != nil {
			return fmt.Errorf("validate: parallel: params %v: %w", fmtParams(names, params), err)
		}
	}
	return nil
}

func compareParallelOnce(file *ast.File, marks map[string]bool, workers int, params map[string]int64, maxSteps int) error {
	cfg := interp.Config{Params: params, MaxSteps: maxSteps}
	want, err := interp.RunAST(file, cfg)
	if errors.Is(err, interp.ErrStepLimit) {
		return nil // no ground truth under this assignment
	}
	if err != nil {
		return fmt.Errorf("sequential run failed: %w", err)
	}
	// Modest slack: the chunked loop evaluates invariant bounds once
	// instead of per iteration, so it normally uses *fewer* ticks, but a
	// runtime fallback to the sequential path (step-sign mismatch)
	// evaluates the header expressions twice.
	pcfg := cfg
	pcfg.MaxSteps = 2*maxSteps + 1024
	got, err := interp.RunASTParallel(file, pcfg, marks, workers)
	if err != nil {
		return fmt.Errorf("parallel run failed: %w", err)
	}
	if err := compareWrites(want.Writes, got.Writes, ExactOrder); err != nil {
		return err
	}
	if len(want.Scalars) != len(got.Scalars) {
		return fmt.Errorf("scalar environment differs: %d scalars sequentially, %d in parallel",
			len(want.Scalars), len(got.Scalars))
	}
	for _, name := range sortedKeys(want.Scalars) {
		w := want.Scalars[name]
		g, ok := got.Scalars[name]
		if !ok {
			return fmt.Errorf("scalar %s missing from the parallel run (sequentially %d)", name, w)
		}
		if g != w {
			return fmt.Errorf("scalar %s differs: %d sequentially, %d in parallel", name, w, g)
		}
	}
	return nil
}
