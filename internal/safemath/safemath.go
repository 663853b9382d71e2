// Package safemath provides overflow-checked int64 arithmetic for the
// analysis pipeline.
//
// The classifier's soundness contract (Wolfe, PLDI 1992; see also the
// (Un)Solvable Loop Analysis line of work) is that a variable may
// always degrade to "unknown" but must never be misclassified. Raw
// int64 arithmetic silently wraps, which turns a too-large trip count
// or folded constant into a confidently wrong one. Every operation
// here instead reports overflow explicitly, so callers can degrade the
// result: SCCP folds to nonconstant, trip counts to unknown, and the
// dependence tester to "assume dependence".
//
// internal/rational's NaR-propagating arithmetic is built on the same
// primitives; this package is the shared, scalar-level substrate.
package safemath

import "math/bits"

const (
	// MinInt64 and MaxInt64 mirror math.MinInt64/MaxInt64 without the
	// math import.
	MinInt64 = -1 << 63
	MaxInt64 = 1<<63 - 1
)

// Add returns a + b and whether the sum is representable.
func Add(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

// Sub returns a - b and whether the difference is representable.
func Sub(a, b int64) (int64, bool) {
	// The subtraction overflowed exactly when the result moved the
	// wrong way: subtracting a positive must shrink, a negative grow.
	d := a - b
	if (b > 0 && d >= a) || (b < 0 && d <= a) {
		return 0, false
	}
	return d, true
}

// Neg returns -a and whether it is representable (-MinInt64 is not).
func Neg(a int64) (int64, bool) {
	if a == MinInt64 {
		return 0, false
	}
	return -a, true
}

// Abs returns |a| and whether it is representable (|MinInt64| is not).
func Abs(a int64) (int64, bool) {
	if a < 0 {
		return Neg(a)
	}
	return a, true
}

// Mul returns a * b and whether the product is representable.
func Mul(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(absU(a), absU(b))
	if hi != 0 || lo > 1<<63 {
		return 0, false
	}
	neg := (a < 0) != (b < 0)
	if lo == 1<<63 {
		if neg {
			return MinInt64, true
		}
		return 0, false
	}
	v := int64(lo)
	if neg {
		v = -v
	}
	return v, true
}

// Div returns a / b, truncated toward zero like Go's /, and whether the
// quotient is representable: b = 0 has none, and MinInt64 / -1 = 2^63
// does not fit.
func Div(a, b int64) (int64, bool) {
	if b == 0 || (a == MinInt64 && b == -1) {
		return 0, false
	}
	return a / b, true
}

// Pow returns x**k by overflow-checked square-and-multiply and whether
// the power is representable. k must be nonnegative; negative k reports
// failure (the mini language's x**k semantics for k < 0 are the
// caller's business). x**0 == 1, including 0**0. The loop runs at most
// 63 iterations regardless of k, so Pow is safe to call on hostile
// exponents (the naive k-step loop is a denial of service for
// k ~ 2^63).
func Pow(x, k int64) (int64, bool) {
	if k < 0 {
		return 0, false
	}
	out := int64(1)
	base := x
	for k > 0 {
		if k&1 == 1 {
			var ok bool
			out, ok = Mul(out, base)
			if !ok {
				return 0, false
			}
		}
		k >>= 1
		if k > 0 {
			// Squaring is only needed while exponent bits remain;
			// skipping the last one avoids a spurious overflow. When
			// base² does overflow here, k > 0 guarantees base is used
			// at least once more, so the power overflows too.
			var ok bool
			base, ok = Mul(base, base)
			if !ok {
				return 0, false
			}
		}
	}
	return out, true
}

// absU returns |x| as a uint64, defined for all inputs.
func absU(x int64) uint64 {
	if x < 0 {
		return uint64(-(x + 1)) + 1
	}
	return uint64(x)
}
