package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondiv/internal/codec"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/store"
)

// TestFingerprintNoCollision pins the length-prefixed disk-key scheme:
// under the old unescaped "|" concatenation, a caller fingerprint could
// impersonate the limits-and-passes suffix of a different configuration
// and alias its store entries. These two configurations concatenate
// identically without length prefixes and must not share keys.
func TestFingerprintNoCollision(t *testing.T) {
	mk := func(fp string, passNames ...string) *Engine {
		var ps []Pass
		for _, n := range passNames {
			ps = append(ps, Pass{Name: n, Run: func(*State) error { return nil }})
		}
		return New(Config{Fingerprint: fp, Passes: ps})
	}
	// One pass named "a,b" versus two passes "a" and "b".
	e1 := mk("x", "a,b")
	e2 := mk("x", "a", "b")
	if e1.aliasKey("s") == e2.aliasKey("s") {
		t.Fatalf("pass-name concatenation still collides:\n%q\n%q", e1.fp, e2.fp)
	}
	// A fingerprint smuggling a pass-list suffix versus the real thing.
	e3 := mk("x|3:a,b")
	if e3.aliasKey("s") == e1.aliasKey("s") {
		t.Fatalf("crafted fingerprint collides with pass list:\n%q\n%q", e3.fp, e1.fp)
	}
	// Same shapes must still agree with themselves.
	if mk("x", "a", "b").aliasKey("s") != e2.aliasKey("s") {
		t.Fatalf("identical configs produce different keys")
	}
}

const persistSrc = `s = 0
for i = 1 to n {
    s = s + i
}
`

// persistConfig builds a frontend-only engine over a disk store with a
// stub artifact builder (the real builder lives in the facade; the
// engine contract only needs bytes that decode).
func persistConfig(st8 *store.Store, reg *metrics.Registry, rec *obs.Recorder) Config {
	return Config{
		Passes:  Frontend(),
		Store:   st8,
		Obs:     rec,
		Metrics: reg,
		BuildArtifact: func(_ *State, _ [32]byte, names []string) ([]byte, error) {
			return codec.Encode(&codec.Artifact{Classification: "stub-report"}, names, nil, nil), nil
		},
	}
}

func TestDiskStoreTwoTier(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rec := obs.New()
	e1 := New(persistConfig(disk, reg, rec))

	// Cold run: fresh analysis plus a store write (entry + alias).
	st, err := e1.Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	e1.Flush()
	if st.Decoded() != nil {
		t.Fatal("cold run returned a decoded state")
	}
	if got := reg.Counter("engine.store.write"); got != 1 {
		t.Fatalf("store.write = %d, want 1", got)
	}
	if disk.Len() != 2 {
		t.Fatalf("store holds %d blobs, want entry+alias", disk.Len())
	}

	// Fresh engine over the same directory — a new process: the alias
	// answers with zero passes (no parse span recorded).
	reg2 := metrics.NewRegistry()
	rec2 := obs.New()
	disk2, _ := store.Open(dir, 0)
	e2 := New(persistConfig(disk2, reg2, rec2))
	st2, err := e2.Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Decoded() == nil {
		t.Fatal("warm cross-process run was not served from the store")
	}
	if st2.Decoded().Classification != "stub-report" {
		t.Fatalf("decoded classification %q", st2.Decoded().Classification)
	}
	if got := reg2.Counter("engine.store.hit.alias"); got != 1 {
		t.Fatalf("store.hit.alias = %d, want 1", got)
	}
	if got := rec2.Counter("engine.store.hit"); got != 1 {
		t.Fatalf("obs store.hit = %d, want 1", got)
	}
	// Zero analysis passes: the span tree has no parse child.
	for _, sp := range rec2.Spans() {
		for _, c := range sp.Children {
			t.Fatalf("warm start ran pass %q", c.Name)
		}
	}

	// A whitespace/comment variant of the same program: the alias
	// misses, the structural entry hits after the parse alone.
	variant := "s=0 // comment\nfor i = 1 to n { s = s + i }\n"
	st3, err := e2.Analyze(variant)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Decoded() == nil {
		t.Fatal("formatting variant missed the structural entry")
	}
	if got := reg2.Counter("engine.store.hit.struct"); got != 1 {
		t.Fatalf("store.hit.struct = %d, want 1", got)
	}
	e2.Flush()
	// The struct hit left an alias: the variant now costs zero passes
	// even in a new process.
	disk3, _ := store.Open(dir, 0)
	reg3 := metrics.NewRegistry()
	e3 := New(persistConfig(disk3, reg3, obs.New()))
	if st4, err := e3.Analyze(variant); err != nil || st4.Decoded() == nil {
		t.Fatalf("variant alias not persisted: %v", err)
	}
	if got := reg3.Counter("engine.store.hit.alias"); got != 1 {
		t.Fatalf("variant store.hit.alias = %d, want 1", got)
	}
}

func TestDiskStoreCorruptionRecovers(t *testing.T) {
	dir := t.TempDir()
	disk, _ := store.Open(dir, 0)
	reg := metrics.NewRegistry()
	e := New(persistConfig(disk, reg, nil))
	if _, err := e.Analyze(persistSrc); err != nil {
		t.Fatal(err)
	}
	e.Flush()

	// Truncate every blob in place: both the alias and the entry are now
	// damaged.
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return nil
		}
		return os.Truncate(path, info.Size()/2)
	})

	reg2 := metrics.NewRegistry()
	disk2, _ := store.Open(dir, 0)
	e2 := New(persistConfig(disk2, reg2, nil))
	st, err := e2.Analyze(persistSrc)
	if err != nil {
		t.Fatalf("corrupt store must degrade to re-analysis, got %v", err)
	}
	if st.Decoded() != nil {
		t.Fatal("corrupt entry served as a result")
	}
	if got := reg2.Counter("engine.store.corrupt"); got == 0 {
		t.Fatal("corruption not counted")
	}
	e2.Flush()
	// The re-analysis rewrote clean blobs: a third engine warm-starts.
	disk3, _ := store.Open(dir, 0)
	reg3 := metrics.NewRegistry()
	e3 := New(persistConfig(disk3, reg3, nil))
	if st3, err := e3.Analyze(persistSrc); err != nil || st3.Decoded() == nil {
		t.Fatalf("store not repaired after corruption: %v", err)
	}
}

// TestCacheEvictionsCounted: a capacity-1 memory cache analyzing A, B,
// A evicts twice, and both sinks count both evictions whether the runs
// were fresh or answered by the store's alias or structural tier.
func TestCacheEvictionsCounted(t *testing.T) {
	a, b := persistSrc, "x = 1\n"
	edited := func(src string) string { return "// edited\n" + src }
	disk, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(persistConfig(disk, nil, nil))
	for _, src := range []string{a, b} {
		if _, err := warm.Analyze(src); err != nil {
			t.Fatal(err)
		}
	}
	warm.Flush()
	for _, tc := range []struct {
		name string
		disk *store.Store
		srcs []string
	}{
		{"fresh", nil, []string{a, b, a}},
		{"alias hits", disk, []string{a, b, a}},
		{"structural hits", disk, []string{edited(a), edited(b), edited(edited(a))}},
	} {
		reg, rec := metrics.NewRegistry(), obs.New()
		cfg := persistConfig(tc.disk, reg, rec)
		cfg.CacheEntries = 1
		e := New(cfg)
		for _, src := range tc.srcs {
			if _, err := e.Analyze(src); err != nil {
				t.Fatal(err)
			}
		}
		e.Flush()
		if tc.disk != nil && rec.Counter("engine.store.hit") != 3 {
			t.Errorf("%s: %d store hits, want 3", tc.name, rec.Counter("engine.store.hit"))
		}
		if r, g := rec.Counter("engine.cache.evict"), reg.Counter("engine.cache.evict"); r != 2 || g != 2 {
			t.Errorf("%s: engine.cache.evict recorder %d, registry %d, want 2", tc.name, r, g)
		}
	}
}

func TestStoreWriteOnly(t *testing.T) {
	dir := t.TempDir()
	disk, _ := store.Open(dir, 0)
	cfg := persistConfig(disk, nil, nil)
	cfg.StoreWriteOnly = true
	e := New(cfg)
	if _, err := e.Analyze(persistSrc); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if disk.Len() == 0 {
		t.Fatal("write-only engine did not warm the store")
	}
	// Re-analysis in a fresh write-only engine must not be served a
	// decoded state.
	disk2, _ := store.Open(dir, 0)
	cfg2 := persistConfig(disk2, nil, nil)
	cfg2.StoreWriteOnly = true
	e2 := New(cfg2)
	st, err := e2.Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	if st.Decoded() != nil {
		t.Fatal("write-only engine read from the store")
	}
	if st.SSA == nil {
		t.Fatal("write-only engine returned no live SSA")
	}
	// A reading engine over the same directory gets the warm entry.
	disk3, _ := store.Open(dir, 0)
	st2, err := New(persistConfig(disk3, nil, nil)).Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Decoded() == nil {
		t.Fatal("reader did not see write-only engine's entries")
	}
}

// TestDecodedMemEntryUpgraded pins the cache.put upgrade: a decoded
// placeholder in the in-memory cache is replaced when a live state for
// the same key arrives (the optimizer path bypasses decoded entries and
// re-runs; its fresh result must take the slot or every later Optimize
// re-runs too).
func TestDecodedMemEntryUpgraded(t *testing.T) {
	dir := t.TempDir()
	disk, _ := store.Open(dir, 0)
	// Warm the disk store.
	warm := New(persistConfig(disk, nil, nil))
	if _, err := warm.Analyze(persistSrc); err != nil {
		t.Fatal(err)
	}
	warm.Flush()
	disk2, _ := store.Open(dir, 0)
	cfg := persistConfig(disk2, nil, nil)
	cfg.CacheEntries = 8
	e := New(cfg)
	// First Analyze: decoded state lands in the memory cache.
	st, err := e.Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decoded() == nil {
		t.Fatal("expected a decoded state")
	}
	// A live-needing analyze bypasses it and re-runs the pipeline...
	live, err := e.analyze(persistSrc, nil, e.cfg.Limits, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if live.Decoded() != nil || live.SSA == nil {
		t.Fatal("needLive analyze still returned a decoded state")
	}
	// ...and its result replaces the placeholder: the next live call is
	// a cache hit (same pointer), not another cold run.
	live2, err := e.analyze(persistSrc, nil, e.cfg.Limits, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if live2 != live {
		t.Fatal("live state did not take over the cache slot")
	}
	e.Flush()
}

func TestAliasSharesStructuralEntryAcrossRenames(t *testing.T) {
	// Engine-level α-sharing needs a renameable artifact; the stub
	// builder stores literal-only, so renamed sources must NOT hit (the
	// codec refuses the remap) — pinning that a non-renameable entry
	// never serves a different table.
	dir := t.TempDir()
	disk, _ := store.Open(dir, 0)
	e := New(persistConfig(disk, nil, nil))
	if _, err := e.Analyze(persistSrc); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	renamed := strings.NewReplacer("s", "t", "i", "j", "n", "m").Replace(persistSrc)
	disk2, _ := store.Open(dir, 0)
	reg := metrics.NewRegistry()
	e2 := New(persistConfig(disk2, reg, nil))
	st, err := e2.Analyze(renamed)
	if err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	if st.Decoded() != nil {
		t.Fatal("literal-only entry served an α-renamed source")
	}
	if got := reg.Counter("engine.store.corrupt"); got != 0 {
		t.Fatalf("incompatible entry counted as corrupt (%d)", got)
	}
}
