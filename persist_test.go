// Facade-level persistent-cache tests: a warm cross-process start must
// run zero analysis passes, and every way the store can be damaged must
// degrade to re-analysis, never to a wrong answer.
package beyondiv

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
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

// TestPersistWarmStartZeroPasses: a second process analyzing a source
// already in the store runs no analysis passes at all — the alias hit
// answers before the parse, which the span tree and the store counters
// both witness.
func TestPersistWarmStartZeroPasses(t *testing.T) {
	dir := t.TempDir()
	if _, err := AnalyzeWith(persistFacadeSrc, Options{CacheDir: dir}); err != nil {
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
		an.Flush()
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

// TestPersistTruncatedStoreRecovers: a blob cut short mid-write (the
// crash the atomic rename protects against, simulated directly) is
// treated exactly like corruption.
func TestPersistTruncatedStoreRecovers(t *testing.T) {
	dir := t.TempDir()
	if _, err := AnalyzeWith(persistFacadeSrc, Options{CacheDir: dir}); err != nil {
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
	prog, aerr := AnalyzeWith(persistFacadeSrc, Options{CacheDir: dir})
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
	wo.Flush()

	reg2 := metrics.NewRegistry()
	prog, err := AnalyzeWith(persistFacadeSrc, Options{CacheDir: dir, Metrics: reg2})
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
	if _, err := AnalyzeWith(persistFacadeSrc, Options{CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	res, err := OptimizeWith(persistFacadeSrc, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program == nil || res.Program.SSA == nil {
		t.Fatal("Optimize through a warm store lost the live program")
	}
}

// TestTwinRunsAtAnalyzerWidth: the α-twin the store's rename check
// analyzes runs at the analyzer's Parallel width, as "-parallel"
// promises for every request, not at one worker per CPU.
func TestTwinRunsAtAnalyzerWidth(t *testing.T) {
	for _, width := range []int{1, 3} {
		an := NewAnalyzer(Options{CacheDir: t.TempDir(), Parallel: width})
		st, err := an.twin.Analyze("x = 1\n")
		if err != nil {
			t.Fatal(err)
		}
		if st.Par() != width {
			t.Errorf("Parallel %d: the twin runs at width %d", width, st.Par())
		}
	}
}

// TestColdStoreWriteBudget pins what persisting a cold analysis costs
// in allocated bytes, writer included: over the serve benchmark's cold
// programs (DepWorkload(10^9 + k)), an analyzer with a CacheDir
// allocates at most 500 KB per cold Analyze. Rendering the artifact
// twice (program and α-twin) and encoding it used to take 1,150 KB.
func TestColdStoreWriteBudget(t *testing.T) {
	n := int64(300)
	if raceEnabled {
		n = 60
	}
	an := NewAnalyzer(Options{CacheDir: t.TempDir()})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := int64(0); k < n; k++ {
		if _, err := an.Analyze(progen.DepWorkload(1e9 + k)); err != nil {
			t.Fatal(err)
		}
	}
	an.Flush()
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / float64(n) / 1024
	bound := 500.0
	if raceEnabled {
		bound *= 1.5
	}
	if perCall > bound {
		t.Errorf("cold Analyze with a store: %.0f KB allocated per call, want ≤ %.0f", perCall, bound)
	}
	t.Logf("%.0f KB per cold Analyze with a store (bound %.0f)", perCall, bound)
}
