package codec

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// The chunk aligner as it stood before align walked both texts with two
// cursors: it split each text into a []chunk and copied every literal
// run through a strings.Builder. Kept verbatim, under ref names, as the
// reference the streaming align must agree with on segments and ok.

type chunk struct {
	s     string
	ident bool
}

func chunks(s string) []chunk {
	var cs []chunk
	refForEachChunk(s, func(tok string, isIdent bool) {
		cs = append(cs, chunk{tok, isIdent})
	})
	return cs
}

// refForEachChunk splits s into maximal identifier tokens
// ([A-Za-z_][A-Za-z0-9_]*) and the non-identifier runs between them.
func refForEachChunk(s string, fn func(tok string, isIdent bool)) {
	i := 0
	for i < len(s) {
		start := i
		if isIdentStart(s[i]) {
			for i < len(s) && isIdentChar(s[i]) {
				i++
			}
			fn(s[start:i], true)
		} else {
			for i < len(s) && !isIdentStart(s[i]) {
				i++
			}
			fn(s[start:i], false)
		}
	}
}

// refMentionsName reports whether any identifier token in s would need
// remapping — the fast path for texts with no name content at all.
func (al *aligner) refMentionsName(s string) bool {
	found := false
	refForEachChunk(s, func(tok string, isIdent bool) {
		if isIdent && al.tokenUsesName(tok) {
			found = true
		}
	})
	return found
}

// refAlign segments a into literals and name references by comparing it
// chunkwise against the twin rendering b. Returns ok=false on any
// divergence the segment model cannot express.
func (al *aligner) refAlign(a, b string) ([]segment, bool) {
	if a == b && !al.refMentionsName(a) {
		// Identical and name-free: pure prose.
		return []segment{{ref: -1, lit: a}}, true
	}
	ca, cb := chunks(a), chunks(b)
	if len(ca) != len(cb) {
		return nil, false
	}
	var segs []segment
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			segs = append(segs, segment{ref: -1, lit: lit.String()})
			lit.Reset()
		}
	}
	for i := range ca {
		x, y := ca[i], cb[i]
		if x.ident != y.ident {
			return nil, false
		}
		if !x.ident {
			if x.s != y.s {
				return nil, false
			}
			lit.WriteString(x.s)
			continue
		}
		if x.s == y.s {
			// Same identifier token on both sides. If it is (or starts
			// with) a table name the renderer failed to rename it — the
			// twin should differ here — so substitution would corrupt
			// it. Treat as prose only if it is name-free.
			if al.tokenUsesName(x.s) {
				return nil, false
			}
			lit.WriteString(x.s)
			continue
		}
		// Diverging identifiers: the twin side must parse uniquely as
		// twinName + digits, and the original side must be exactly the
		// corresponding name + the same digits.
		if al.width == 0 || len(y.s) < al.width {
			return nil, false
		}
		k, ok := al.twinIdx[y.s[:al.width]]
		suffix := y.s[al.width:]
		if !ok || !allDigits(suffix) {
			return nil, false
		}
		if x.s != al.names[k]+suffix {
			return nil, false
		}
		flush()
		segs = append(segs, segment{ref: k, lit: suffix})
	}
	flush()
	if segs == nil {
		segs = []segment{{ref: -1, lit: ""}}
	}
	return segs, true
}

// alignMismatch aligns a against b with al.align and with the reference
// and describes how they differ, or returns "".
func alignMismatch(al *aligner, a, b string) (string, bool) {
	got, gotOK := al.align(a, b)
	want, wantOK := al.refAlign(a, b)
	if gotOK != wantOK || !slices.Equal(got, want) {
		return fmt.Sprintf("align = %v, %v; reference = %v, %v\na = %q\nb = %q", got, gotOK, want, wantOK, a, b), wantOK
	}
	return "", wantOK
}

// bigPair is a 16 KB text about the fixture's names with a name
// reference on every line, and its twin.
func bigPair() (names, twin []string, a, b string) {
	names = []string{"i", "n"}
	twin = RenameTable(names)
	var sa, sb strings.Builder
	for k := 0; sa.Len() < 16<<10; k++ {
		fmt.Fprintf(&sa, "  i%d = (1, +1, n) in loop L%d: rule §4.1\n", k, k)
		fmt.Fprintf(&sb, "  %s%d = (1, +1, %s) in loop L%d: rule §4.1\n", twin[0], k, twin[1], k)
	}
	return names, twin, sa.String(), sb.String()
}

// TestAlignAllocs pins the streaming walk: aligning a 16 KB pair with a
// name reference on every line allocates the returned segment slice and
// nothing else — no chunk slices, no literal copies.
func TestAlignAllocs(t *testing.T) {
	names, twin, a, b := bigPair()
	al := newAligner(names, twin)
	if msg, ok := alignMismatch(al, a, b); msg != "" || !ok {
		t.Fatalf("ok=%v %s", ok, msg)
	}
	var segs int
	allocs := testing.AllocsPerRun(20, func() {
		ss, ok := al.align(a, b)
		if !ok {
			t.Fatal("big pair does not align")
		}
		segs = len(ss)
	})
	if allocs != 1 {
		t.Fatalf("align of a %d-byte pair into %d segments: %v allocations, want 1", len(a), segs, allocs)
	}
}
