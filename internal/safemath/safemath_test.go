package safemath

import (
	"math/big"
	"testing"
)

// interesting is the boundary-heavy operand set every binary op is
// crossed against.
var interesting = []int64{
	MinInt64, MinInt64 + 1, MinInt64 / 2,
	-3037000500, // ~ -sqrt(MaxInt64)
	-(1 << 32), -12345, -2, -1, 0, 1, 2, 3, 12345, 1 << 32,
	3037000499, // ~ sqrt(MaxInt64)
	MaxInt64 / 2, MaxInt64 - 1, MaxInt64,
}

func fits(z *big.Int) bool { return z.IsInt64() }

func TestAddSubMulAgainstBig(t *testing.T) {
	for _, a := range interesting {
		for _, b := range interesting {
			ba, bb := big.NewInt(a), big.NewInt(b)
			cases := []struct {
				name string
				got  func() (int64, bool)
				want *big.Int
			}{
				{"Add", func() (int64, bool) { return Add(a, b) }, new(big.Int).Add(ba, bb)},
				{"Sub", func() (int64, bool) { return Sub(a, b) }, new(big.Int).Sub(ba, bb)},
				{"Mul", func() (int64, bool) { return Mul(a, b) }, new(big.Int).Mul(ba, bb)},
			}
			for _, c := range cases {
				got, ok := c.got()
				if ok != fits(c.want) {
					t.Fatalf("%s(%d, %d): ok=%v, want %v", c.name, a, b, ok, fits(c.want))
				}
				if ok && got != c.want.Int64() {
					t.Fatalf("%s(%d, %d) = %d, want %s", c.name, a, b, got, c.want)
				}
			}
		}
	}
}

func TestDivAgainstBig(t *testing.T) {
	for _, a := range interesting {
		for _, b := range interesting {
			got, ok := Div(a, b)
			if b == 0 {
				if ok {
					t.Fatalf("Div(%d, 0) reported a quotient", a)
				}
				continue
			}
			want := new(big.Int).Quo(big.NewInt(a), big.NewInt(b))
			if ok != fits(want) || (ok && got != want.Int64()) {
				t.Fatalf("Div(%d, %d) = %d, %v; want %s", a, b, got, ok, want)
			}
		}
	}
}

func TestNegAbs(t *testing.T) {
	for _, a := range interesting {
		want := new(big.Int).Neg(big.NewInt(a))
		got, ok := Neg(a)
		if ok != fits(want) || (ok && got != want.Int64()) {
			t.Fatalf("Neg(%d) = %d, %v", a, got, ok)
		}
		want.Abs(big.NewInt(a))
		got, ok = Abs(a)
		if ok != fits(want) || (ok && got != want.Int64()) {
			t.Fatalf("Abs(%d) = %d, %v", a, got, ok)
		}
	}
}

func TestPowAgainstBig(t *testing.T) {
	bases := []int64{MinInt64, -10, -3, -2, -1, 0, 1, 2, 3, 10, 3037000499, MaxInt64}
	exps := []int64{0, 1, 2, 3, 5, 31, 62, 63, 64, 100, 1 << 20}
	for _, x := range bases {
		for _, k := range exps {
			want := new(big.Int).Exp(big.NewInt(x), big.NewInt(k), nil)
			got, ok := Pow(x, k)
			if ok != fits(want) {
				t.Fatalf("Pow(%d, %d): ok=%v, want representable=%v (%s)", x, k, ok, fits(want), want)
			}
			if ok && got != want.Int64() {
				t.Fatalf("Pow(%d, %d) = %d, want %s", x, k, got, want)
			}
		}
	}
}

func TestPowNegativeExponentFails(t *testing.T) {
	if _, ok := Pow(2, -1); ok {
		t.Fatal("Pow(2, -1) must report failure; semantics belong to the caller")
	}
}

// TestPowHostileExponentTerminates is the regression test for the
// constant-fold denial of service: the naive k-step loop runs 2^63
// iterations on this input.
func TestPowHostileExponentTerminates(t *testing.T) {
	if _, ok := Pow(2, MaxInt64); ok {
		t.Fatal("2**MaxInt64 cannot be representable")
	}
	if v, ok := Pow(1, MaxInt64); !ok || v != 1 {
		t.Fatalf("1**MaxInt64 = %d, %v, want 1", v, ok)
	}
	if v, ok := Pow(-1, MaxInt64); !ok || v != -1 {
		t.Fatalf("(-1)**MaxInt64 = %d, %v, want -1", v, ok)
	}
	if v, ok := Pow(0, MaxInt64); !ok || v != 0 {
		t.Fatalf("0**MaxInt64 = %d, %v, want 0", v, ok)
	}
}
