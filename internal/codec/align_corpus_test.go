package codec_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/codec"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// pairSet is every text pair the differential rename check aligns for
// one program: the four report texts, then each explain entry's name
// and text, original against its α-renamed twin.
type pairSet struct {
	names, twin []string
	pairs       [][2]string
}

// renderings returns the texts the facade's artifact holds for src, in
// Encode's order: classification, dependences, dependence provenance,
// report JSON, then each explain key and its text.
func renderings(t testing.TB, src string) []string {
	p, err := beyondiv.Analyze(src)
	if err != nil {
		t.Fatalf("analyze: %v\n%s", err, src)
	}
	js, err := json.Marshal(p.IV.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	out := []string{p.ClassificationReport(), p.DependenceReport(), p.ExplainAllDeps(), string(js)}
	keys, texts := p.IV.ExplainAll()
	for i, k := range keys {
		out = append(out, k, texts[i])
	}
	return out
}

// alignPairs renders src and the twin RewriteSource makes of it, as the
// facade's artifact builder does.
func alignPairs(t testing.TB, src string) pairSet {
	file, err := parse.File(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	_, names := codec.StructuralHash(file)
	twin := codec.RenameTable(names)
	if twin == nil {
		t.Fatalf("no twin table for %d names", len(names))
	}
	a := renderings(t, src)
	b := renderings(t, codec.RewriteSource(file.String(), names, twin))
	ps := pairSet{names: names, twin: twin}
	for i := range a {
		if i < len(b) {
			ps.pairs = append(ps.pairs, [2]string{a[i], b[i]})
		}
	}
	return ps
}

// alignSources is every program the reference test aligns: the paper
// corpus, the examples, three generated families and four large
// synthetic shapes.
func alignSources(t testing.TB) []string {
	var srcs []string
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	srcs = append(srcs, exampleSources(t)...)
	gen := progen.New()
	for k := int64(0); k < 400; k++ {
		srcs = append(srcs, progen.DepWorkload(k), progen.DepWorkload(1e9+k), gen.Program(k))
	}
	return append(srcs, progen.MutualChain(64), progen.Large(12), progen.StraightLineLoop(256), progen.MixedClasses(20))
}

func exampleSources(t testing.TB) []string {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("examples: %v (%d files)", err, len(files))
	}
	var srcs []string
	for _, f := range files {
		src, err := cliutil.ReadProgram(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	return srcs
}

// perturbations derives twin renderings the check must refuse from one
// that aligns: a token changed, a name fused into the prose around it,
// a chunk dropped, and trailing text.
func perturbations(twin []string, b string) []string {
	var out []string
	if i := strings.IndexAny(b, "=:(,"); i >= 0 {
		out = append(out, b[:i]+"#"+b[i+1:])
	}
	if i := strings.Index(b, twin[0]); i >= 0 {
		out = append(out, b[:i]+"x"+b[i:])
		if j := strings.IndexAny(b[i:], " \n"); j >= 0 {
			out = append(out, b[:i]+b[i+j:])
		}
	}
	return append(out, b+" tail")
}

// TestAlignMatchesReference: over every pair the artifact builder
// aligns for the reference programs, the streaming aligner returns the
// chunk aligner's segments and ok. Perturbed twins of each program's
// first pairs (every pair of the paper corpus) run the refusals.
func TestAlignMatchesReference(t *testing.T) {
	srcs := alignSources(t)
	var pairs, refused int
	for n, src := range srcs {
		ps := alignPairs(t, src)
		check := codec.AlignCheck(ps.names, ps.twin)
		for i, p := range ps.pairs {
			pairs++
			if msg, _ := check(p[0], p[1]); msg != "" {
				t.Fatalf("%s\nprogram:\n%s", msg, src)
			}
			if i >= 8 && n >= len(paper.Corpus) {
				continue
			}
			for _, b := range perturbations(ps.twin, p[1]) {
				msg, ok := check(p[0], b)
				if msg != "" {
					t.Fatalf("perturbed: %s\nprogram:\n%s", msg, src)
				}
				if !ok {
					refused++
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no perturbed pair was refused: the ok=false paths never ran")
	}
	t.Logf("%d programs, %d pairs, %d perturbed pairs refused", len(srcs), pairs, refused)
}

// FuzzAlign checks the streaming aligner against the reference on
// arbitrary text pairs under an arbitrary name table (space-separated),
// seeded from the paper corpus's pairs and their perturbations.
func FuzzAlign(f *testing.F) {
	for _, p := range paper.Corpus {
		ps := alignPairs(f, p.Source)
		names := strings.Join(ps.names, " ")
		for _, pr := range ps.pairs {
			f.Add(names, pr[0], pr[1])
			for _, b := range perturbations(ps.twin, pr[1]) {
				f.Add(names, pr[0], b)
			}
		}
	}
	f.Fuzz(func(t *testing.T, names, a, b string) {
		table := strings.Fields(names)
		if msg, _ := codec.AlignCheck(table, codec.RenameTable(table))(a, b); msg != "" {
			t.Fatal(msg)
		}
	})
}
