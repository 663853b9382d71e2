// Package validate is the translation-validation harness for the
// transformation layer: it checks that an optimized program is
// observably equivalent to the original by running both through the SSA
// interpreter (internal/interp) over a deterministic grid of parameter
// assignments and comparing the observable outcome bit for bit — the
// final value of every source scalar and the complete array store
// trace, in order.
//
// This is the mechanical answer to "does the rewrite preserve the
// loop's algebra?": rather than trusting the classification a transform
// consumed, every engine transform pass is replayed against the
// interpreter, in the spirit of the verified polynomial loop reasoning
// of Humenberger et al. and de Oliveira et al. — except checked
// dynamically on a grid, which is exactly what two interpreters buy.
//
// Both sides run compiled (interp.Compile): a Baseline compiles the
// original once, and a check compiles the transformed program once and
// replays that form at every grid point. Under ExactOrder the
// transformed run compares each store with the original's trace as it
// happens and stops at the first difference, building no trace of its
// own. Scalars are compared in name order, so an error names the first
// differing scalar, the same one on every run.
package validate

import (
	"errors"
	"fmt"
	"slices"

	"beyondiv/internal/interp"
	"beyondiv/internal/ssa"
)

// TraceOrder selects how two store traces are compared.
type TraceOrder int

const (
	// ExactOrder requires the global write traces to be identical
	// element for element — the strongest check, right for transforms
	// that preserve execution order (peeling, strength reduction, the
	// parallel backend's deterministic merge).
	ExactOrder TraceOrder = iota
	// PerCellOrder requires the same total number of writes and, for
	// every individual array cell, the identical sequence of values
	// written to it. Loop restructuring (interchange, distribution)
	// legally permutes the *global* interleaving of writes to different
	// cells, but legality — every dependence preserved, output
	// dependences included — guarantees the per-cell sequences survive;
	// this mode checks exactly that invariant.
	PerCellOrder
)

// Options configure the grid.
type Options struct {
	// Grid is the candidate value set each parameter draws from; the
	// default mixes negative, zero, small and moderate trip counts.
	Grid []int64
	// MaxRuns caps the number of parameter assignments tried (the full
	// cross product is enumerated when it is smaller). Default 48.
	MaxRuns int
	// MaxSteps is the step budget for the original program; the
	// transformed program gets a proportional slack budget, since
	// rewrites legitimately change the executed instruction count.
	// Default 200000.
	MaxSteps int
	// Order is how store traces are compared (default ExactOrder; the
	// engine switches to PerCellOrder once a trace-reordering transform
	// has fired).
	Order TraceOrder
}

func (o Options) grid() []int64 {
	if len(o.Grid) > 0 {
		return o.Grid
	}
	return []int64{-3, -1, 0, 1, 2, 3, 7, 16}
}

func (o Options) maxRuns() int {
	if o.MaxRuns > 0 {
		return o.MaxRuns
	}
	return 48
}

func (o Options) maxSteps() int {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 200_000
}

// Funcs checks that xf is observably equivalent to orig over the grid:
// for every tried parameter assignment, the array store traces are
// identical element for element and every scalar the original program
// reports has the identical final value in the transformed one (the
// transformed program may introduce fresh scalars — normalization
// counters — but may never change or lose an original one). Parameter
// assignments under which the original exceeds the step budget are
// skipped: there is no ground truth to compare against. Returns nil on
// equivalence, or an error naming the first diverging assignment and
// observation; of several diverging scalars, the first in name order.
func Funcs(orig, xf *ssa.Info, opts Options) error {
	return NewBaseline(orig, opts).Check(interp.Compile(xf), opts.Order)
}

// keepWrites caps the store-trace entries a Baseline keeps over all its
// grid points, about 8 MB. A point whose trace would pass it is run
// again at each check instead of kept, so a store-heavy program holds
// one trace at a time, as a lone Funcs call does, not one per point.
const keepWrites = 1 << 18

// Baseline is the original program's side of translation validation:
// the original compiled once, and its outcome at each grid point —
// final scalars and store trace, a failure, or no ground truth past the
// step budget — computed when a check first needs it and kept for later
// checks. Checking every rewrite of one program against one Baseline
// runs the unchanged original once per grid point instead of once per
// check. A Baseline is for one goroutine at a time; the original may
// change once NewBaseline returns.
type Baseline struct {
	orig   *interp.Program
	names  []string
	grid   []int64
	steps  int
	points []outcome // one per tried assignment
	kept   int       // store-trace entries held across points
}

// outcome is the original's result at one grid point.
type outcome struct {
	done    bool
	want    *interp.Result // nil with a nil err: no ground truth
	scalars []string       // want's scalar names, sorted
	err     error
}

// NewBaseline compiles orig and returns its Baseline over opts' grid;
// it runs nothing until a check does.
func NewBaseline(orig *ssa.Info, opts Options) *Baseline {
	names := sortedKeys(orig.Params)
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
	return &Baseline{orig: interp.Compile(orig), names: names, grid: grid, steps: opts.maxSteps(), points: make([]outcome, runs)}
}

// Check is Funcs against the Baseline's original, for the transformed
// program compiled once and replayed at every grid point, comparing
// store traces under order.
func (b *Baseline) Check(xf *interp.Program, order TraceOrder) error {
	params := map[string]int64{}
	for r := range b.points {
		// Mixed-radix enumeration: run r assigns digit (r / len^i) % len
		// of the grid to parameter i — deterministic, and the first run
		// is all-grid[0].
		x := r
		for _, n := range b.names {
			params[n] = b.grid[x%len(b.grid)]
			x /= len(b.grid)
		}
		o := b.truth(r, params)
		err := o.err
		if err == nil && o.want != nil {
			err = compareWith(o, xf, params, b.steps, order)
		}
		if err != nil {
			return fmt.Errorf("validate: params %v: %w", fmtParams(b.names, params), err)
		}
	}
	return nil
}

// truth returns the original's outcome at grid point r, running it on
// first use.
func (b *Baseline) truth(r int, params map[string]int64) outcome {
	if o := b.points[r]; o.done {
		return o
	}
	o := outcome{done: true}
	want, err := b.orig.Run(interp.Config{Params: params, MaxSteps: b.steps}, interp.Hooks{})
	switch {
	case errors.Is(err, interp.ErrStepLimit):
		// no ground truth under this assignment
	case err != nil:
		o.err = fmt.Errorf("original program failed: %w", err)
	default:
		o.want, o.scalars = want, sortedKeys(want.Scalars)
	}
	if o.want == nil || b.kept+len(o.want.Writes) <= keepWrites {
		b.points[r] = o
		if o.want != nil {
			b.kept += len(o.want.Writes)
		}
	}
	return o
}

// errDiverged stops a transformed run at its first store that differs
// from the original's trace.
var errDiverged = errors.New("validate: store trace diverged")

// compareWith runs the transformed program under one parameter
// assignment and compares it with the original's outcome there. Under
// ExactOrder each store is compared with the original's trace as it
// happens, and the run stops at the first difference; only then is the
// program run again with its trace kept, so the error reads as a
// whole-trace comparison reads.
func compareWith(o outcome, xf *interp.Program, params map[string]int64, maxSteps int, order TraceOrder) error {
	// The transformed program gets slack: added instructions (peeled
	// bodies, normalization restores) must not fail validation on budget
	// alone, while introduced non-termination still surfaces.
	cfg := interp.Config{Params: params, MaxSteps: 4*maxSteps + 1024}
	want := o.want
	if order == ExactOrder {
		n := 0
		got, err := xf.Run(cfg, interp.Hooks{OnStore: func(w interp.ArrayWrite) error {
			if n == len(want.Writes) || w != want.Writes[n] {
				return errDiverged
			}
			n++
			return nil
		}})
		switch {
		case err == nil && n == len(want.Writes):
			return compareScalars(o, got)
		case err != nil && err != errDiverged:
			return fmt.Errorf("transformed program failed: %w", err)
		}
	}
	got, err := xf.Run(cfg, interp.Hooks{})
	if err != nil {
		return fmt.Errorf("transformed program failed: %w", err)
	}
	if err := compareWrites(want.Writes, got.Writes, order); err != nil {
		return err
	}
	return compareScalars(o, got)
}

// compareScalars checks every scalar of the original's outcome against
// the transformed run's, in name order.
func compareScalars(o outcome, got *interp.Result) error {
	for _, name := range o.scalars {
		w := o.want.Scalars[name]
		g, ok := got.Scalars[name]
		if !ok {
			return fmt.Errorf("scalar %s lost by the transformation (originally %d)", name, w)
		}
		if g != w {
			return fmt.Errorf("scalar %s differs: %d originally, %d transformed", name, w, g)
		}
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// compareWrites checks two store traces under the selected order.
func compareWrites(want, got []interp.ArrayWrite, order TraceOrder) error {
	if len(want) != len(got) {
		return fmt.Errorf("store trace length differs: %d writes originally, %d transformed",
			len(want), len(got))
	}
	if order == PerCellOrder {
		type cell struct {
			array string
			index int64
		}
		seq := map[cell][]int64{}
		for _, w := range want {
			c := cell{w.Array, w.Index}
			seq[c] = append(seq[c], w.Value)
		}
		for i, w := range got {
			c := cell{w.Array, w.Index}
			s := seq[c]
			if len(s) == 0 {
				return fmt.Errorf("store %d unexpected: %s[%d]=%d has no matching original write",
					i, w.Array, w.Index, w.Value)
			}
			if s[0] != w.Value {
				return fmt.Errorf("cell %s[%d] write sequence differs: next original value %d, transformed wrote %d",
					w.Array, w.Index, s[0], w.Value)
			}
			seq[c] = s[1:]
		}
		return nil
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("store %d differs: %s[%d]=%d originally, %s[%d]=%d transformed",
				i, want[i].Array, want[i].Index, want[i].Value,
				got[i].Array, got[i].Index, got[i].Value)
		}
	}
	return nil
}

func fmtParams(names []string, params map[string]int64) string {
	if len(names) == 0 {
		return "{}"
	}
	out := "{"
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", n, params[n])
	}
	return out + "}"
}
