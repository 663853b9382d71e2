package codec

import (
	"slices"
	"sort"
	"strings"
)

// The differential rename check: before an entry is marked renameable,
// the encoder re-analyzes an automatically α-renamed twin of the
// program and aligns every rendered text of the original against the
// twin's, token by token. Wherever the two differ, the difference must
// be exactly "original name (plus an optional digit suffix)" versus
// "that name's twin replacement (plus the same suffix)" — that token
// becomes a name reference. Any other divergence means some renderer is
// name-sensitive in a way substitution can't reproduce, and the entry
// is stored literal-only. The check is empirical, so it stays correct
// as renderers evolve: nothing here enumerates renderer vocabulary.

// renameWidth is the fixed code length appended to the twin prefix.
// Fixed width makes the twin side of an alignment uniquely parseable
// into name + digit suffix even when original names are prefixes of
// one another (x vs x1).
const renameWidth = 3

const maxRenameable = 26 * 26 * 26

// RenameTable builds the twin name table: names[i] is replaced by
// prefix + a base-26 letter code of names[i]'s rank in sorted order, so
// the twin table sorts exactly like the original — renderers that order
// output by name order it identically for both. The prefix starts at
// "zq" and grows a "q" until no original name starts with it, keeping
// twin tokens disjoint from original ones. Returns nil when the table
// is too large to code (such programs are stored literal-only).
func RenameTable(names []string) []string {
	if len(names) > maxRenameable {
		return nil
	}
	prefix := "zq"
	for {
		clash := false
		for _, n := range names {
			if strings.HasPrefix(n, prefix) {
				clash = true
				break
			}
		}
		if !clash {
			break
		}
		prefix += "q"
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	rank := make(map[string]int, len(sorted))
	for i, n := range sorted {
		rank[n] = i
	}
	out := make([]string, len(names))
	for i, n := range names {
		r := rank[n]
		out[i] = prefix + string([]byte{
			'a' + byte(r/676),
			'a' + byte(r/26%26),
			'a' + byte(r%26),
		})
	}
	return out
}

// RewriteSource produces the twin program's source: the canonical
// rendering of the original with every identifier token that matches a
// table name replaced by its twin. Keywords can never match (they
// parsed as keywords, not identifiers), and the canonical rendering
// carries no comments, so whole-token replacement is exact.
func RewriteSource(src string, names, twin []string) string {
	repl := make(map[string]string, len(names))
	for i, n := range names {
		repl[n] = twin[i]
	}
	var sb strings.Builder
	sb.Grow(len(src) + len(src)/2)
	forEachChunk(src, func(tok string, isIdent bool) {
		if isIdent {
			if t, ok := repl[tok]; ok {
				sb.WriteString(t)
				return
			}
		}
		sb.WriteString(tok)
	})
	return sb.String()
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// forEachChunk splits s into maximal identifier tokens
// ([A-Za-z_][A-Za-z0-9_]*) and the non-identifier runs between them.
func forEachChunk(s string, fn func(tok string, isIdent bool)) {
	for i := 0; i < len(s); {
		end, ident := chunkEnd(s, i)
		fn(s[i:end], ident)
		i = end
	}
}

// chunkEnd returns the end of the chunk of s that starts at i, and
// whether that chunk is an identifier token.
func chunkEnd(s string, i int) (int, bool) {
	if isIdentStart(s[i]) {
		for i < len(s) && isIdentChar(s[i]) {
			i++
		}
		return i, true
	}
	for i < len(s) && !isIdentStart(s[i]) {
		i++
	}
	return i, false
}

// aligner matches an original text against its twin's rendering.
type aligner struct {
	names   []string
	nameIdx map[string]int // original name -> table slot
	twinIdx map[string]int // twin name -> table slot
	width   int            // uniform twin-name byte length, 0 if unusable
	segs    []segment      // align's working buffer, reused across calls
}

func newAligner(names, twin []string) *aligner {
	a := &aligner{
		names:   names,
		nameIdx: make(map[string]int, len(names)),
		twinIdx: make(map[string]int, len(twin)),
	}
	if len(twin) != len(names) || len(twin) == 0 {
		return a
	}
	a.width = len(twin[0])
	for i := range names {
		a.nameIdx[names[i]] = i
		a.twinIdx[twin[i]] = i
		if len(twin[i]) != a.width {
			a.width = 0
		}
	}
	return a
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// align segments a into literals and name references by comparing it
// chunkwise against the twin rendering b. Returns ok=false on any
// divergence the segment model cannot express.
//
// Two cursors walk a and b chunk by chunk; every literal segment is a
// slice of a spanning the chunks since the last name reference, so the
// only allocation is the returned segment slice.
func (al *aligner) align(a, b string) ([]segment, bool) {
	if a == b && !al.mentionsName(a) {
		// Identical and name-free: pure prose.
		return []segment{{ref: -1, lit: a}}, true
	}
	segs := al.segs[:0]
	lit := 0 // start in a of the literal run not yet emitted
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ie, xIdent := chunkEnd(a, i)
		je, yIdent := chunkEnd(b, j)
		x, y := a[i:ie], b[j:je]
		start := i
		i, j = ie, je
		if xIdent != yIdent {
			return nil, false
		}
		if !xIdent {
			if x != y {
				return nil, false
			}
			continue
		}
		if x == y {
			// Same identifier token on both sides. If it is (or starts
			// with) a table name the renderer failed to rename it — the
			// twin should differ here — so substitution would corrupt
			// it. Treat as prose only if it is name-free.
			if al.tokenUsesName(x) {
				return nil, false
			}
			continue
		}
		// Diverging identifiers: the twin side must parse uniquely as
		// twinName + digits, and the original side must be exactly the
		// corresponding name + the same digits.
		if al.width == 0 || len(y) < al.width {
			return nil, false
		}
		k, ok := al.twinIdx[y[:al.width]]
		suffix := y[al.width:]
		if !ok || !allDigits(suffix) {
			return nil, false
		}
		if rest, found := strings.CutPrefix(x, al.names[k]); !found || rest != suffix {
			return nil, false
		}
		if start > lit {
			segs = append(segs, segment{ref: -1, lit: a[lit:start]})
		}
		segs = append(segs, segment{ref: k, lit: suffix})
		lit = i
	}
	if i < len(a) || j < len(b) {
		// One side has chunks left over: the texts do not pair up.
		return nil, false
	}
	if len(a) > lit {
		segs = append(segs, segment{ref: -1, lit: a[lit:]})
	}
	al.segs = segs
	if len(segs) == 0 {
		return []segment{{ref: -1, lit: ""}}, true
	}
	return slices.Clone(segs), true
}

// tokenUsesName reports whether an identifier token is a table name or
// a table name with a digit suffix — i.e. something a remap must touch.
func (al *aligner) tokenUsesName(tok string) bool {
	if _, ok := al.nameIdx[tok]; ok {
		return true
	}
	base := strings.TrimRight(tok, "0123456789")
	if base != tok {
		if _, ok := al.nameIdx[base]; ok {
			return true
		}
	}
	return false
}

// mentionsName reports whether any identifier token in s would need
// remapping — the fast path for texts with no name content at all.
func (al *aligner) mentionsName(s string) bool {
	for i := 0; i < len(s); {
		end, ident := chunkEnd(s, i)
		if ident && al.tokenUsesName(s[i:end]) {
			return true
		}
		i = end
	}
	return false
}
