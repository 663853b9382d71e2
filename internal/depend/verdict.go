package depend

import "encoding/binary"

// Verdict reuse. testAffine's answer — which direction vectors have a
// solution, from whose side, by which method, and whether all
// solutions share one distance vector — is a function of the equation
// buildEquation produced, two facts about the pair (is it one access
// against itself, does A come first in the body) and the exact-solve
// ceiling. Nothing else reaches it: the feasibility tests and the
// distance solvers read only the equation, the direction vector and
// MaxExact. The key is the canonical bytes of exactly those inputs, so
// an equation solved by an earlier analysis needs no second solve,
// whatever program it came from. Loop normalization, strength
// reduction and dead-code elimination leave the subscripts' tuples over
// the basic iteration counters, and so the equations, unchanged
// (DESIGN.md §17).
//
// Each Result keeps the verdicts of its own run. The run that replaces
// it (depend.Pass re-analyzing a rewritten program) reads that table
// and never writes it; its own verdicts, hits and misses alike, form
// the new Result's table. A returned table is therefore immutable, the
// set of hits is the same at every fan-out width, and a table lives
// exactly as long as its Result.

// verdict is everything testAffine derives from one key. It holds no
// IR pointer; a hit shares it between the old table and the new one.
type verdict struct {
	// key is the verdict's own key, so a hit joins the new table
	// without copying it again.
	key string
	// has[0] and has[1] report a dependence with A, respectively B, as
	// its source; dirs[s·d:(s+1)·d] are that dependence's directions
	// over the d common loops, as seen from the source.
	has  [2]bool
	dirs []Dir
	// method is the equation's final decision procedure.
	method string
	// dist is hB − hA per common loop when every solution shares it,
	// nil otherwise.
	dist []int64
}

// independent reports a verdict with no dependence either way.
func (v *verdict) independent() bool { return !v.has[0] && !v.has[1] }

// appendVerdictKey appends the canonical encoding of a verdict's
// inputs to dst. Every field is self-delimiting (varints, count
// prefixes, a tag byte before each optional bound) and the fields come
// in a fixed order, so two inputs share a key exactly when they agree
// in every field.
func appendVerdictKey(dst []byte, eq *equation, same, aFirst bool, maxExact int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(eq.ca)))
	for i := range eq.ca {
		dst = binary.AppendVarint(dst, eq.ca[i])
		dst = binary.AppendVarint(dst, eq.cb[i])
		dst = appendBound(dst, eq.ubA[i])
		dst = appendBound(dst, eq.ubB[i])
	}
	dst = binary.AppendUvarint(dst, uint64(len(eq.solos)))
	for _, s := range eq.solos {
		dst = binary.AppendVarint(dst, s.coeff)
		dst = appendBound(dst, s.lo)
		dst = appendBound(dst, s.hi)
	}
	dst = binary.AppendUvarint(dst, uint64(len(eq.per)))
	for _, pe := range eq.per {
		dst = binary.AppendVarint(dst, int64(pe.dim))
		dst = binary.AppendVarint(dst, int64(pe.side))
		dst = binary.AppendVarint(dst, int64(pe.phase))
		dst = binary.AppendVarint(dst, int64(pe.p))
		dst = binary.AppendUvarint(dst, uint64(len(pe.contrib)))
		for _, c := range pe.contrib {
			dst = binary.AppendVarint(dst, c)
		}
	}
	dst = binary.AppendVarint(dst, eq.rhs)
	flags := byte(0)
	if same {
		flags |= 1
	}
	if aFirst {
		flags |= 2
	}
	dst = append(dst, flags)
	return binary.AppendVarint(dst, int64(maxExact))
}

// appendBound encodes an optional bound: a 0 tag for nil (unbounded),
// a 1 tag and the value otherwise.
func appendBound(dst []byte, b *int64) []byte {
	if b == nil {
		return append(dst, 0)
	}
	return binary.AppendVarint(append(dst, 1), *b)
}
