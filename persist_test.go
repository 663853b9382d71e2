// Facade-level persistent-cache tests: a Program served from the disk
// store must be indistinguishable, byte for byte, from a live analysis
// across every rendered artifact; a warm cross-process start must run
// zero analysis passes; and every way the store can be damaged must
// degrade to re-analysis, never to a wrong answer.
package beyondiv

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// persistFacadeSrc has induction variables, dependences and a nested
// loop, so every artifact section is non-trivial.
const persistFacadeSrc = `j = 0
L1: for i = 1 to n {
    j = j + 2
    a[j] = a[j+1] + 1
    L2: for k = 1 to m {
        b[k] = j
    }
}
`

// artifactViews renders every cacheable artifact of a Program into a
// comparable bundle. keys is the explain-name universe to probe —
// derived from the live analysis, since a decoded program cannot
// enumerate its own.
func artifactViews(t *testing.T, p *Program, keys []string) map[string]string {
	t.Helper()
	js, err := json.Marshal(p.ReportData())
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]string{
		"classification": p.ClassificationReport(),
		"dependences":    p.DependenceReport(),
		"explaindeps":    p.ExplainAllDeps(),
		"reportjson":     string(js),
	}
	for _, k := range keys {
		views["explain:"+k] = p.Explain(k)
	}
	return views
}

func diffViews(t *testing.T, label string, fresh, decoded map[string]string) {
	t.Helper()
	for k, want := range fresh {
		if got := decoded[k]; got != want {
			t.Errorf("%s: %s differs\n--- fresh ---\n%s\n--- decoded ---\n%s", label, k, want, got)
		}
	}
}

// TestPersistDecodedMatchesFresh: every paper example, served from a
// warm store in a second "process" (a second analyzer over the same
// directory), renders byte-identically to a live analysis — reports,
// structured JSON, dependence explanations, and the provenance chain of
// every name the classifier can explain.
func TestPersistDecodedMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	warm := NewAnalyzer(Options{CacheDir: dir})
	for _, p := range paper.Corpus {
		if _, err := warm.Analyze(p.Source); err != nil {
			t.Fatalf("%s: warm: %v", p.ID, err)
		}
	}

	reader := NewAnalyzer(Options{CacheDir: dir})
	for _, p := range paper.Corpus {
		fresh, err := Analyze(p.Source)
		if err != nil {
			t.Fatalf("%s: %v", p.ID, err)
		}
		decoded, err := reader.Analyze(p.Source)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.ID, err)
		}
		if !decoded.Decoded() {
			t.Fatalf("%s: second process missed the store", p.ID)
		}
		keys := fresh.IV.ExplainKeys()
		keys = append(keys, "nosuchvariable")
		diffViews(t, p.ID, artifactViews(t, fresh, keys), artifactViews(t, decoded, keys))
	}
}

// TestPersistWarmStartZeroPasses: a second process analyzing a source
// already in the store runs no analysis passes at all — the alias hit
// answers before the parse, which the span tree and the store counters
// both witness.
func TestPersistWarmStartZeroPasses(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewAnalyzer(Options{CacheDir: dir}).Analyze(persistFacadeSrc); err != nil {
		t.Fatal(err)
	}

	rec := obs.New()
	reg := metrics.NewRegistry()
	an := NewAnalyzer(Options{CacheDir: dir, Obs: rec, Metrics: reg})
	prog, err := an.Analyze(persistFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Decoded() {
		t.Fatal("warm cross-process start was not served from the store")
	}
	if got := reg.Counter("engine.store.hit.alias"); got != 1 {
		t.Fatalf("engine.store.hit.alias = %d, want 1", got)
	}
	for _, sp := range rec.Spans() {
		for _, c := range sp.Children {
			t.Fatalf("warm start ran analysis pass %q", c.Name)
		}
	}
	// The decoded program still renders everything a reader needs...
	if prog.ClassificationReport() == "" || len(prog.ReportData()) == 0 {
		t.Fatal("decoded program rendered empty artifacts")
	}
	// ...but refuses what needs live SSA, with a pointed error.
	if _, err := prog.Run(nil); err == nil || !strings.Contains(err.Error(), "persistent cache") {
		t.Fatalf("Run on a decoded program: %v", err)
	}
}

// TestPersistIncrementalCounters: the store counters of the three
// restart scenarios, each run by a fresh analyzer (a process restart in
// miniature) over one store directory. A cold run writes every
// program; after 1 of n files is edited, the other n−1 hit and only
// the edited one is written; a warm restart answers all n from alias
// records, with no miss and no write.
func TestPersistIncrementalCounters(t *testing.T) {
	var srcs []string
	for seed := int64(1); seed <= 4; seed++ {
		srcs = append(srcs, progen.DepWorkload(seed))
	}
	n := int64(len(srcs))
	dir := t.TempDir()
	run := func(scenario string, programs []string, want map[string]int64) {
		t.Helper()
		reg := metrics.NewRegistry()
		an := NewAnalyzer(Options{CacheDir: dir, Metrics: reg})
		for _, src := range programs {
			if _, err := an.Analyze(src); err != nil {
				t.Fatalf("%s: %v", scenario, err)
			}
		}
		for name, w := range want {
			if got := reg.Counter(name); got != w {
				t.Errorf("%s: %s = %d, want %d", scenario, name, got, w)
			}
		}
	}

	run("cold", srcs, map[string]int64{"engine.store.write": n})
	edited := append([]string(nil), srcs...)
	edited[0] += "\nzedit = 1\n"
	run("1-of-n edit", edited, map[string]int64{"engine.store.hit": n - 1, "engine.store.write": 1})
	run("warm restart", srcs, map[string]int64{
		"engine.store.hit.alias": n, "engine.store.miss": 0, "engine.store.write": 0,
	})
}

// TestPersistStructuralHit: whitespace- and comment-only edits hit the
// structural entry (a parse, zero analysis passes), and an α-renamed
// duplicate whose names keep their relative order is served from the
// same entry, byte-identical to analyzing it live.
func TestPersistStructuralHit(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewAnalyzer(Options{CacheDir: dir}).Analyze(persistFacadeSrc); err != nil {
		t.Fatal(err)
	}

	// Formatting-only variant: extra blank lines, a comment, re-indent.
	variant := "// reformatted\n" + strings.ReplaceAll(persistFacadeSrc, "    ", "\t") + "\n"
	reg := metrics.NewRegistry()
	reader := NewAnalyzer(Options{CacheDir: dir, Metrics: reg})
	prog, err := reader.Analyze(variant)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Decoded() {
		t.Fatal("formatting variant missed the structural entry")
	}
	if got := reg.Counter("engine.store.hit.struct"); got != 1 {
		t.Fatalf("engine.store.hit.struct = %d, want 1", got)
	}
	fresh, err := Analyze(variant)
	if err != nil {
		t.Fatal(err)
	}
	keys := fresh.IV.ExplainKeys()
	diffViews(t, "format-variant", artifactViews(t, fresh, keys), artifactViews(t, prog, keys))

	// α-rename preserving relative name order: every report is the
	// renamed program's own, decoded by remapping the stored entry.
	renamed := persistFacadeSrc
	for _, sub := range [][2]string{{"j", "jj"}, {"i", "ii"}, {"a", "aa"}, {"b", "bb"}, {"k", "kk"}, {"m", "mm"}, {"n", "nn"}} {
		renamed = renameIdent(renamed, sub[0], sub[1])
	}
	reg2 := metrics.NewRegistry()
	reader2 := NewAnalyzer(Options{CacheDir: dir, Metrics: reg2})
	rprog, err := reader2.Analyze(renamed)
	if err != nil {
		t.Fatal(err)
	}
	if !rprog.Decoded() {
		t.Fatal("order-preserving rename missed the structural entry")
	}
	rfresh, err := Analyze(renamed)
	if err != nil {
		t.Fatal(err)
	}
	rkeys := rfresh.IV.ExplainKeys()
	diffViews(t, "alpha-rename", artifactViews(t, rfresh, rkeys), artifactViews(t, rprog, rkeys))

	// A rename that breaks relative order ("j" sorted after "a" becomes
	// "c" sorted before) cannot be served by remap: it must fall back to
	// a live analysis, never a misrendered artifact.
	broken := renameIdent(persistFacadeSrc, "j", "c")
	reg3 := metrics.NewRegistry()
	bprog, err := NewAnalyzer(Options{CacheDir: dir, Metrics: reg3}).Analyze(broken)
	if err != nil {
		t.Fatal(err)
	}
	if bprog.Decoded() {
		t.Fatal("order-breaking rename served from the store")
	}
	if got := reg3.Counter("engine.store.corrupt"); got != 0 {
		t.Fatalf("incompatible remap counted as corruption (%d)", got)
	}
}

// renameIdent replaces whole-token occurrences of old with new — enough
// of a renamer for test sources.
func renameIdent(src, old, new string) string {
	isWord := func(b byte) bool {
		return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (b >= '0' && b <= '9')
	}
	var sb strings.Builder
	for i := 0; i < len(src); {
		if strings.HasPrefix(src[i:], old) &&
			(i == 0 || !isWord(src[i-1])) &&
			(i+len(old) == len(src) || !isWord(src[i+len(old)])) {
			sb.WriteString(new)
			i += len(old)
			continue
		}
		sb.WriteByte(src[i])
		i++
	}
	return sb.String()
}

// TestPersistCorruptionRecovers: flipping bytes in every stored blob
// must not change any answer — the next analyzer re-analyzes live,
// counts the damage, and rewrites clean entries.
func TestPersistCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewAnalyzer(Options{CacheDir: dir}).Analyze(persistFacadeSrc); err != nil {
		t.Fatal(err)
	}
	fresh, err := Analyze(persistFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}

	damaged := 0
	err = filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)/2] ^= 0xff
		damaged++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged == 0 {
		t.Fatal("no blobs to damage; the store wrote nothing")
	}

	reg := metrics.NewRegistry()
	prog, err := NewAnalyzer(Options{CacheDir: dir, Metrics: reg}).Analyze(persistFacadeSrc)
	if err != nil {
		t.Fatalf("corrupt store must degrade to re-analysis, got %v", err)
	}
	if prog.Decoded() {
		t.Fatal("corrupt entry served as a result")
	}
	if got := reg.Counter("engine.store.corrupt"); got == 0 {
		t.Fatal("corruption not counted")
	}
	keys := fresh.IV.ExplainKeys()
	diffViews(t, "post-corruption", artifactViews(t, fresh, keys), artifactViews(t, prog, keys))

	// The live run re-wrote the blobs: a third process warm-starts.
	reg2 := metrics.NewRegistry()
	prog2, err := NewAnalyzer(Options{CacheDir: dir, Metrics: reg2}).Analyze(persistFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !prog2.Decoded() || reg2.Counter("engine.store.hit.alias") != 1 {
		t.Fatal("store not repaired by the re-analysis")
	}
}

// TestPersistTruncatedStoreRecovers: a blob cut short mid-write (the
// crash the atomic rename protects against, simulated directly) is
// treated exactly like corruption.
func TestPersistTruncatedStoreRecovers(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewAnalyzer(Options{CacheDir: dir}).Analyze(persistFacadeSrc); err != nil {
		t.Fatal(err)
	}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		return os.Truncate(path, fi.Size()/2)
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, aerr := NewAnalyzer(Options{CacheDir: dir}).Analyze(persistFacadeSrc)
	if aerr != nil {
		t.Fatalf("truncated store must degrade to re-analysis, got %v", aerr)
	}
	if prog.Decoded() {
		t.Fatal("truncated entry served as a result")
	}
	if prog.ClassificationReport() == "" {
		t.Fatal("re-analysis rendered nothing")
	}
}

// TestPersistWriteOnly: a write-only analyzer never reads the store but
// still warms it — its programs stay live (Run works), and a subsequent
// reading analyzer gets the alias hit.
func TestPersistWriteOnly(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	wo := NewAnalyzer(Options{CacheDir: dir, CacheDirWriteOnly: true, Metrics: reg})
	for i := 0; i < 2; i++ {
		prog, err := wo.Analyze(persistFacadeSrc)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Decoded() {
			t.Fatal("write-only analyzer served a decoded program")
		}
		if _, err := prog.Run(map[string]int64{"n": 3, "m": 2}); err != nil {
			t.Fatalf("write-only program lost live SSA: %v", err)
		}
	}
	if got := reg.Counter("engine.store.hit"); got != 0 {
		t.Fatalf("write-only analyzer read the store %d times", got)
	}

	reg2 := metrics.NewRegistry()
	prog, err := NewAnalyzer(Options{CacheDir: dir, Metrics: reg2}).Analyze(persistFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Decoded() || reg2.Counter("engine.store.hit.alias") != 1 {
		t.Fatal("write-only analyzer did not warm the store")
	}
}

// TestPersistBadCacheDir: an unusable cache directory surfaces as an
// error from every entry point — never a silent fall-through to
// uncached analysis the operator thinks is being persisted.
func TestPersistBadCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	an := NewAnalyzer(Options{CacheDir: file})
	if _, err := an.Analyze(persistFacadeSrc); err == nil {
		t.Fatal("Analyze with an unusable cache dir succeeded")
	}
	for _, r := range an.AnalyzeAll([]string{persistFacadeSrc, persistFacadeSrc}) {
		if r.Err == nil {
			t.Fatal("AnalyzeAll with an unusable cache dir succeeded")
		}
	}
	if _, err := an.Optimize(persistFacadeSrc); err == nil {
		t.Fatal("Optimize with an unusable cache dir succeeded")
	}
}

// TestPersistOptimizeStaysLive: with a warm read-write store, Optimize
// must still run the transform pipeline on live SSA — a decoded
// artifact can never satisfy it.
func TestPersistOptimizeStaysLive(t *testing.T) {
	dir := t.TempDir()
	an := NewAnalyzer(Options{CacheDir: dir})
	if _, err := an.Analyze(persistFacadeSrc); err != nil {
		t.Fatal(err)
	}
	an2 := NewAnalyzer(Options{CacheDir: dir})
	res, err := an2.Optimize(persistFacadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == nil || res.Program.SSA == nil {
		t.Fatal("Optimize through a warm store lost the live program")
	}
}
