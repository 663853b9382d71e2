// Package interp provides two interpreters for the mini language: a
// reference interpreter over the AST, and an interpreter over the
// SSA-form CFG. Agreement between the two on random programs is the
// master correctness property for the front half of the pipeline
// (parse → cfgbuild → ssa), and the SSA interpreter doubles as the
// dynamic oracle for induction-variable classification: internal/iv's
// tests compare predicted closed forms against observed value traces.
//
// The SSA interpreter runs a compiled form: Compile turns the function
// into op-coded instructions over dense value slots once, and a
// Program replays it under any number of Configs (translation
// validation replays one program over a whole parameter grid).
// RunSSA and RunSSAHooked are Compile + Run. A run counts one step per
// executed value, and what it cannot execute (malformed IR) is an
// error when execution reaches it, never a panic.
//
// Shared semantics (both interpreters implement exactly these):
//   - all scalars are int64 with wrapping arithmetic;
//   - x / 0 == 0 (so random programs cannot fault);
//   - x ** k with k < 0 == 0, and x ** 0 == 1;
//   - reading a scalar never written yields Params[name] (default 0);
//   - reading an array cell never written yields Arrays(name, index);
//   - `for` bounds and steps are re-evaluated each iteration, and the
//     termination test direction follows cfgbuild.ConstStepSign.
package interp

import (
	"errors"
	"fmt"
)

// ErrStepLimit is returned when execution exceeds the configured budget
// (a long-running or non-terminating program).
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ArrayWrite records one array store, in execution order.
type ArrayWrite struct {
	Array string
	Index int64
	Value int64
}

// Config parameterizes a run.
type Config struct {
	// Params supplies values for scalars read before written.
	Params map[string]int64
	// Arrays supplies the initial contents of array cells; nil means
	// DefaultArray.
	Arrays func(name string, index int64) int64
	// MaxSteps bounds executed statements/values; 0 means 1e6.
	MaxSteps int
}

// DefaultArray is a deterministic pseudo-random array background, small
// enough that conditionals on array values take both branches.
func DefaultArray(name string, index int64) int64 {
	h := uint64(index) * 0x9E3779B97F4A7C15
	for _, c := range name {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h%7) - 3
}

func (c *Config) arrays() func(string, int64) int64 {
	if c.Arrays != nil {
		return c.Arrays
	}
	return DefaultArray
}

func (c *Config) maxSteps() int {
	if c.MaxSteps > 0 {
		return c.MaxSteps
	}
	return 1_000_000
}

// Result is the observable outcome of a run: final scalar values (every
// scalar that was ever assigned, plus referenced params) and the array
// store trace.
type Result struct {
	Scalars map[string]int64
	Writes  []ArrayWrite
}

// memory is the shared mutable array state.
type memory struct {
	cells map[string]map[int64]int64
	base  func(string, int64) int64
	trace []ArrayWrite
}

func newMemory(base func(string, int64) int64) *memory {
	return &memory{cells: map[string]map[int64]int64{}, base: base}
}

func (m *memory) load(name string, idx int64) int64 {
	if row, ok := m.cells[name]; ok {
		if v, ok := row[idx]; ok {
			return v
		}
	}
	return m.base(name, idx)
}

func (m *memory) store(name string, idx, val int64) {
	row, ok := m.cells[name]
	if !ok {
		row = map[int64]int64{}
		m.cells[name] = row
	}
	row[idx] = val
	m.trace = append(m.trace, ArrayWrite{Array: name, Index: idx, Value: val})
}

// evalDiv implements the shared division semantics.
func evalDiv(x, y int64) int64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// evalExp implements the shared exponentiation semantics. Wrapping
// square-and-multiply: multiplication mod 2^64 is associative, so this
// produces bit-for-bit the same result as the naive product loop while
// costing at most 63 iterations for any exponent — a hostile
// `x ** 9e18` terminates immediately instead of spinning for years.
func evalExp(x, k int64) int64 {
	if k < 0 {
		return 0
	}
	out := int64(1)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			out *= x
		}
		x *= x
	}
	return out
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func compare(op string, x, y int64) int64 {
	switch op {
	case "<":
		return boolToInt(x < y)
	case "<=":
		return boolToInt(x <= y)
	case ">":
		return boolToInt(x > y)
	case ">=":
		return boolToInt(x >= y)
	case "==":
		return boolToInt(x == y)
	case "!=":
		return boolToInt(x != y)
	}
	panic(fmt.Sprintf("interp: bad comparison %q", op))
}
