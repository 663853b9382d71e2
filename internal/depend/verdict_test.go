package depend

import (
	"encoding/binary"
	"slices"
	"testing"
)

// The verdict key must be injective on everything a verdict reads:
// two inputs may share a key only when solveAffine cannot tell them
// apart. sameVerdictInput is the reference, written field by field.

// verdictInput is what a verdict key encodes.
type verdictInput struct {
	eq           *equation
	same, aFirst bool
	maxExact     int
}

func (in verdictInput) key() string {
	return string(appendVerdictKey(nil, in.eq, in.same, in.aFirst, in.maxExact))
}

// sameVerdictInput reports whether two inputs agree in every field a
// verdict reads: a nil bound differs from every value, solos compare
// in order, periodic terms compare whole contrib slices.
func sameVerdictInput(x, y verdictInput) bool {
	bound := func(p, q *int64) bool { return (p == nil) == (q == nil) && (p == nil || *p == *q) }
	ex, ey := x.eq, y.eq
	if x.same != y.same || x.aFirst != y.aFirst || x.maxExact != y.maxExact || ex.rhs != ey.rhs ||
		!slices.Equal(ex.ca, ey.ca) || !slices.Equal(ex.cb, ey.cb) ||
		len(ex.solos) != len(ey.solos) || len(ex.per) != len(ey.per) {
		return false
	}
	for i := range ex.ca {
		if !bound(ex.ubA[i], ey.ubA[i]) || !bound(ex.ubB[i], ey.ubB[i]) {
			return false
		}
	}
	for i, s := range ex.solos {
		o := ey.solos[i]
		if s.coeff != o.coeff || !bound(s.lo, o.lo) || !bound(s.hi, o.hi) {
			return false
		}
	}
	for i, p := range ex.per {
		q := ey.per[i]
		if p.dim != q.dim || p.side != q.side || p.phase != q.phase || p.p != q.p || !slices.Equal(p.contrib, q.contrib) {
			return false
		}
	}
	return true
}

// verdictCase decodes one input from a byte stream: an equation by
// FuzzExactSolve's decoder, a periodic term on each of its residue
// constraints with p−1 to p+1 contributions, and the two flags.
func verdictCase(next func() int) verdictInput {
	eq, _, mods, maxExact := decodeCase(next)
	pick := func(n int) int { return next() % n }
	for _, m := range mods {
		pe := perEq{dim: m.dim, side: m.side, phase: m.residue, p: m.p}
		for n := m.p - 1 + pick(3); n > 0; n-- {
			pe.contrib = append(pe.contrib, int64(pick(5)-2))
		}
		eq.per = append(eq.per, pe)
	}
	return verdictInput{eq: eq, same: pick(2) == 0, aFirst: pick(2) == 0, maxExact: maxExact}
}

// verdictPair decodes two inputs: one from data[2:], the other from a
// copy with byte data[0] (mod its length) shifted by data[1]. The two
// agree whenever the shift leaves every decoded value alone — a byte
// read modulo a small count, or one past the decoder's reach — and
// differ in one field or many otherwise.
func verdictPair(data []byte) (x, y verdictInput) {
	var pos, delta byte
	if len(data) > 0 {
		pos, data = data[0], data[1:]
	}
	if len(data) > 0 {
		delta, data = data[0], data[1:]
	}
	mut := slices.Clone(data)
	if len(mut) > 0 {
		mut[int(pos)%len(mut)] += delta
	}
	return verdictCase(byteStream(data)), verdictCase(byteStream(mut))
}

// decodeVerdictKey parses a key back into the input it encodes. A key
// that decodes to its own input cannot be shared by another input, so
// the round trip proves appendVerdictKey injective on every input it
// is run on; it catches a dropped count or tag that two hand-picked
// inputs would have to be built to collide on.
func decodeVerdictKey(key string) (in verdictInput, ok bool) {
	b := []byte(key)
	bad := false
	uv := func() uint64 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return x
	}
	sv := func() int64 {
		x, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return x
	}
	count := func() int {
		if n := uv(); n <= uint64(len(b)) {
			return int(n)
		}
		bad = true
		return 0
	}
	bound := func() *int64 {
		if len(b) == 0 || b[0] > 1 {
			bad = true
			return nil
		}
		tag := b[0]
		b = b[1:]
		if tag == 0 {
			return nil
		}
		v := sv()
		return &v
	}
	eq := &equation{}
	for i := count(); i > 0 && !bad; i-- {
		eq.ca = append(eq.ca, sv())
		eq.cb = append(eq.cb, sv())
		eq.ubA = append(eq.ubA, bound())
		eq.ubB = append(eq.ubB, bound())
	}
	for i := count(); i > 0 && !bad; i-- {
		eq.solos = append(eq.solos, variable{coeff: sv(), lo: bound(), hi: bound()})
	}
	for i := count(); i > 0 && !bad; i-- {
		pe := perEq{dim: int(sv()), side: int(sv()), phase: int(sv()), p: int(sv())}
		for j := count(); j > 0 && !bad; j-- {
			pe.contrib = append(pe.contrib, sv())
		}
		eq.per = append(eq.per, pe)
	}
	eq.rhs = sv()
	if len(b) == 0 || b[0] > 3 {
		return in, false
	}
	in = verdictInput{eq: eq, same: b[0]&1 != 0, aFirst: b[0]&2 != 0}
	b = b[1:]
	in.maxExact = int(sv())
	return in, !bad && len(b) == 0
}

// checkVerdictKey fails when a key does not decode to its input, or
// the keys' equality disagrees with the reference, and reports whether
// the inputs agreed.
func checkVerdictKey(t *testing.T, x, y verdictInput) bool {
	t.Helper()
	for _, in := range []verdictInput{x, y} {
		if back, ok := decodeVerdictKey(in.key()); !ok || !sameVerdictInput(in, back) {
			t.Fatalf("key of %s flags %v/%v max %d per %v does not decode to it",
				fmtEquation(in.eq), in.same, in.aFirst, in.maxExact, in.eq.per)
		}
	}
	same := sameVerdictInput(x, y)
	if (x.key() == y.key()) != same {
		t.Fatalf("inputs agree: %v, keys equal: %v\n%s flags %v/%v max %d per %v\n%s flags %v/%v max %d per %v",
			same, !same, fmtEquation(x.eq), x.same, x.aFirst, x.maxExact, x.eq.per,
			fmtEquation(y.eq), y.same, y.aFirst, y.maxExact, y.eq.per)
	}
	return same
}

// TestVerdictKeyNearMisses pins the distinctions an encoding without
// tags, counts or fixed field order would lose.
func TestVerdictKeyNearMisses(t *testing.T) {
	ptr := func(v int64) *int64 { return &v }
	base := func() verdictInput {
		return verdictInput{eq: &equation{
			ca: []int64{1, 2}, cb: []int64{1, 3},
			ubA: []*int64{ptr(9), ptr(0)}, ubB: []*int64{ptr(9), ptr(4)},
			solos: []variable{{coeff: 2, lo: ptr(0), hi: ptr(5)}, {coeff: 3}},
			per: []perEq{
				{dim: 1, side: 0, phase: 1, p: 2, contrib: []int64{1, 2}},
				{dim: 0, side: 1, phase: 2, p: 3, contrib: []int64{5}},
			},
			rhs: 7,
		}, aFirst: true, maxExact: 1 << 16}
	}
	edits := map[string]func(in *verdictInput){
		"ubA nil vs 0":        func(in *verdictInput) { in.eq.ubA[1] = nil },
		"ubB nil vs value":    func(in *verdictInput) { in.eq.ubB[0] = nil },
		"ubA and ubB swapped": func(in *verdictInput) { in.eq.ubA[1], in.eq.ubB[1] = in.eq.ubB[1], in.eq.ubA[1] },
		"ca and cb swapped":   func(in *verdictInput) { in.eq.ca[1], in.eq.cb[1] = in.eq.cb[1], in.eq.ca[1] },
		"solos swapped":       func(in *verdictInput) { s := in.eq.solos; s[0], s[1] = s[1], s[0] },
		"solo lo nil vs 0":    func(in *verdictInput) { in.eq.solos[0].lo = nil },
		"solo bounds moved": func(in *verdictInput) {
			s := in.eq.solos
			s[1].lo, s[1].hi, s[0].lo, s[0].hi = s[0].lo, s[0].hi, nil, nil
		},
		"solo dropped":    func(in *verdictInput) { in.eq.solos = in.eq.solos[:1] },
		"contrib longer":  func(in *verdictInput) { in.eq.per[0].contrib = append(in.eq.per[0].contrib, 0) },
		"contrib shorter": func(in *verdictInput) { in.eq.per[0].contrib = in.eq.per[0].contrib[:1] },
		"per side":        func(in *verdictInput) { in.eq.per[0].side = 1 },
		"per phase":       func(in *verdictInput) { in.eq.per[0].phase = 0 },
		"contrib spilled into the next term": func(in *verdictInput) {
			// Without the contribution counts both encode as
			// 1 0 1 2 | 1 2 | 0 1 2 3 | 5.
			in.eq.per[0].contrib = []int64{1}
			in.eq.per[1] = perEq{dim: 2, side: 0, phase: 1, p: 2, contrib: []int64{3, 5}}
		},
		"per split": func(in *verdictInput) {
			pe := in.eq.per[0]
			in.eq.per = []perEq{{dim: pe.dim, side: pe.side, phase: pe.phase, p: pe.p, contrib: pe.contrib[:1]},
				{dim: pe.dim, side: pe.side, phase: pe.phase, p: pe.p, contrib: pe.contrib[1:]}, in.eq.per[1]}
		},
		"common loop dropped": func(in *verdictInput) {
			e := in.eq
			e.ca, e.cb, e.ubA, e.ubB = e.ca[:1], e.cb[:1], e.ubA[:1], e.ubB[:1]
		},
		"rhs":       func(in *verdictInput) { in.eq.rhs = -7 },
		"same":      func(in *verdictInput) { in.same = true },
		"aFirst":    func(in *verdictInput) { in.aFirst = false },
		"max exact": func(in *verdictInput) { in.maxExact = 64 },
	}
	for name, edit := range edits {
		x, y := base(), base()
		edit(&y)
		if checkVerdictKey(t, x, y) {
			t.Errorf("%s: the edit left the input unchanged", name)
		}
	}
	// Equal values behind distinct pointers share a key.
	x, y := base(), base()
	y.eq.ubA[0] = ptr(9)
	y.eq.per[0].contrib = slices.Clone(y.eq.per[0].contrib)
	if !checkVerdictKey(t, x, y) {
		t.Error("fresh copies of one input disagree")
	}
}

// TestVerdictKeyRandom runs the fuzz check over random pairs and
// requires both outcomes often enough to mean something.
func TestVerdictKeyRandom(t *testing.T) {
	agree := 0
	seeds := exactSeeds(10000)
	for _, data := range seeds {
		if x, y := verdictPair(data); checkVerdictKey(t, x, y) {
			agree++
		}
	}
	if agree < 1000 || len(seeds)-agree < 1000 {
		t.Fatalf("%d of %d random pairs agree: too one-sided", agree, len(seeds))
	}
	t.Logf("%d of %d random pairs agree", agree, len(seeds))
}

// FuzzVerdictKey drives the same check from fuzzed bytes.
func FuzzVerdictKey(f *testing.F) {
	for _, data := range exactSeeds(64) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y := verdictPair(data)
		checkVerdictKey(t, x, y)
	})
}
