package engine

import (
	"context"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"beyondiv/internal/codec"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/store"
)

// pause stops e's writer from starting: hand-offs queue and nothing
// reaches the disk until resume.
func pause(e *Engine) {
	e.w.mu.Lock()
	e.w.running = true
	e.w.mu.Unlock()
}

// resume starts the paused writer on whatever has queued.
func resume(e *Engine) { go e.w.run() }

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	disk, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestWriteBehindReadsOwnWrites: an engine reads its own writes once
// they are on disk, and only then. With the writer paused and no memory
// tier, a repeat of the source misses the store and is analyzed afresh,
// to the same result; once the writer has run and Flush returns, an
// engine over the directory answers the source from its alias.
func TestWriteBehindReadsOwnWrites(t *testing.T) {
	dir := t.TempDir()
	disk := openStore(t, dir)
	reg := metrics.NewRegistry()
	e := New(persistConfig(disk, reg, nil))
	pause(e)
	first, err := e.Analyze(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.Analyze(persistSrc)
	if err != nil || again.Decoded() != nil {
		t.Fatalf("a write still queued answered the repeated source (%v)", err)
	}
	if a, b := first.File.String(), again.File.String(); a != b {
		t.Fatalf("the repeat analyzed to\n%s\nnot\n%s", b, a)
	}
	if a, b := first.SSA.Func.String(), again.SSA.Func.String(); a != b {
		t.Fatalf("the repeat built SSA\n%s\nnot\n%s", b, a)
	}
	if hit, miss := reg.Counter("engine.store.hit"), reg.Counter("engine.store.miss"); hit != 0 || miss != 2 {
		t.Fatalf("store hits %d, misses %d before the writer ran, want 0 and 2", hit, miss)
	}
	if disk.Len() != 0 {
		t.Fatalf("a paused writer put %d blobs on disk", disk.Len())
	}
	resume(e)
	e.Flush()
	if disk.Len() != 2 {
		t.Fatalf("store holds %d blobs after Flush, want entry and alias", disk.Len())
	}
	reg2 := metrics.NewRegistry()
	e2 := New(persistConfig(openStore(t, dir), reg2, nil))
	for range 2 {
		if st, err := e2.Analyze(persistSrc); err != nil || st.Decoded() == nil {
			t.Fatalf("the flushed write did not answer a new engine (%v)", err)
		}
	}
	if n := reg2.Counter("engine.store.hit.alias"); n != 2 {
		t.Fatalf("hit.alias %d, want 2", n)
	}
}

// TestWriteBehindFlushThenRestart: after Flush, an engine over a fresh
// handle on the directory — a restarted process — answers every source
// from its alias.
func TestWriteBehindFlushThenRestart(t *testing.T) {
	dir := t.TempDir()
	var srcs []string
	for k := 0; k < 16; k++ {
		srcs = append(srcs, fmt.Sprintf("s = %d\nfor i = 1 to n {\n    s = s + i\n}\n", k))
	}
	e := New(persistConfig(openStore(t, dir), nil, nil))
	for _, src := range srcs {
		if _, err := e.Analyze(src); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()
	reg := metrics.NewRegistry()
	e2 := New(persistConfig(openStore(t, dir), reg, nil))
	for _, src := range srcs {
		if st, err := e2.Analyze(src); err != nil || st.Decoded() == nil {
			t.Fatalf("restart missed %q (%v)", src, err)
		}
	}
	if got, miss := reg.Counter("engine.store.hit.alias"), reg.Counter("engine.store.miss"); got != int64(len(srcs)) || miss != 0 {
		t.Fatalf("restart: %d alias hits and %d misses, want %d and 0", got, miss, len(srcs))
	}
}

// TestWriteBehindOrder: the writer puts each entry before its alias, in
// hand-off order, and an entry that fails to write takes its alias
// with it.
func TestWriteBehindOrder(t *testing.T) {
	disk := openStore(t, t.TempDir())
	e := New(persistConfig(disk, nil, nil))
	a, b, c := persistSrc, "x = 1\n", "y = 2\n"
	pause(e)
	for _, src := range []string{a, b, c} {
		if _, err := e.Analyze(src); err != nil {
			t.Fatal(err)
		}
	}
	key := func(src string) (entry, alias [32]byte) {
		st, err := New(Config{Passes: Frontend()}).Analyze(src)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := codec.StructuralHash(st.File)
		return e.entryKey(sum), e.aliasKey(src)
	}
	var order [][32]byte
	failB, _ := key(b)
	e.w.put = func(k [32]byte, data []byte) (int, error) {
		order = append(order, k)
		if k == failB {
			return 0, fmt.Errorf("disk full")
		}
		return disk.Put(k, data)
	}
	resume(e)
	e.Flush()
	ea, aa := key(a)
	ec, ac := key(c)
	want := [][32]byte{ea, aa, failB, ec, ac}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("write order %x, want entry a, alias a, entry b (fails, no alias), entry c, alias c", order)
	}
	if disk.Len() != 4 {
		t.Fatalf("store holds %d blobs, want 4", disk.Len())
	}
}

// TestWriteBehindBound: once the pending bytes reach maxPendingBytes a
// hand-off blocks until the writer catches up, and nothing handed off
// is dropped.
func TestWriteBehindBound(t *testing.T) {
	disk := openStore(t, t.TempDir())
	e := New(persistConfig(disk, nil, nil))
	pause(e)
	blob := make([]byte, maxPendingBytes/4)
	for k := byte(0); k < 4; k++ {
		e.w.handOff(&write{entryKey: [32]byte{1, k}, entry: blob, aliasKey: [32]byte{2, k}, alias: []byte{k}})
	}
	handed := make(chan struct{})
	go func() {
		e.w.handOff(&write{entryKey: [32]byte{1, 4}, entry: blob, aliasKey: [32]byte{2, 4}, alias: []byte{4}})
		close(handed)
	}()
	select {
	case <-handed:
		t.Fatal("a hand-off past the byte bound did not block")
	case <-time.After(20 * time.Millisecond):
	}
	resume(e)
	<-handed
	e.Flush()
	if disk.Len() != 10 {
		t.Fatalf("store holds %d blobs, want all 10 handed off", disk.Len())
	}
}

// TestWriteBehindCallerBuilds: with the writer paused, maxUnbuilt cold
// runs hand off without building their blob; the next run builds its
// own, once and on its own goroutine, and returns without waiting for
// the writer. After Flush every one of them is on disk.
func TestWriteBehindCallerBuilds(t *testing.T) {
	disk := openStore(t, t.TempDir())
	reg := metrics.NewRegistry()
	cfg := persistConfig(disk, reg, nil)
	stub := cfg.BuildArtifact
	var mu sync.Mutex
	var builders []bool // per hook call: did it run on the test's goroutine?
	cfg.BuildArtifact = func(st *State, sum [32]byte, names []string) ([]byte, error) {
		mu.Lock()
		builders = append(builders, strings.Contains(string(debug.Stack()), "TestWriteBehindCallerBuilds"))
		mu.Unlock()
		return stub(st, sum, names)
	}
	calls := func() []bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(builders)
	}
	e := New(cfg)
	pause(e)
	src := func(k int) string { return fmt.Sprintf("s = %d\nfor i = 1 to n {\n    s = s + i\n}\n", k) }
	for k := 0; k < maxUnbuilt; k++ {
		if _, err := e.Analyze(src(k)); err != nil {
			t.Fatal(err)
		}
	}
	if c := calls(); len(c) != 0 {
		t.Fatalf("%d cold runs called the hook %d times before the writer ran, want 0", maxUnbuilt, len(c))
	}
	returned := make(chan error)
	go func() {
		_, err := e.Analyze(src(maxUnbuilt))
		returned <- err
	}()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a cold run past the unbuilt bound waited for the paused writer")
	}
	if c := calls(); len(c) != 1 || !c[0] {
		t.Fatalf("hook calls %v, want one, on the cold run's own goroutine", c)
	}
	resume(e)
	e.Flush()
	if c := calls(); len(c) != maxUnbuilt+1 {
		t.Fatalf("the hook ran %d times in all, want %d", len(c), maxUnbuilt+1)
	}
	if n := reg.Counter("engine.store.write"); n != maxUnbuilt+1 {
		t.Fatalf("engine.store.write = %d, want %d", n, maxUnbuilt+1)
	}
	if disk.Len() != 2*(maxUnbuilt+1) {
		t.Fatalf("store holds %d blobs, want %d", disk.Len(), 2*(maxUnbuilt+1))
	}
}

// TestWriteBehindBuildFault: a panic while building a blob, on the
// writer or on the run that hands it off, costs only that write.
// Analyze returns the live result, neither record reaches the disk, the
// fault counts once as engine.store.fault, and later writes land.
func TestWriteBehindBuildFault(t *testing.T) {
	faulty := func(disk *store.Store, reg *metrics.Registry) *Engine {
		cfg := persistConfig(disk, reg, nil)
		stub := cfg.BuildArtifact
		cfg.BuildArtifact = func(st *State, sum [32]byte, names []string) ([]byte, error) {
			if st.Source == persistSrc {
				panic("build fault")
			}
			return stub(st, sum, names)
		}
		return New(cfg)
	}
	t.Run("writer", func(t *testing.T) {
		disk, reg := openStore(t, t.TempDir()), metrics.NewRegistry()
		e := faulty(disk, reg)
		if st, err := e.Analyze(persistSrc); err != nil || st.SSA == nil {
			t.Fatalf("Analyze did not return the live result (%v)", err)
		}
		e.Flush()
		if disk.Len() != 0 {
			t.Fatalf("store holds %d blobs of a write whose build panicked", disk.Len())
		}
		if n := reg.Counter("engine.store.fault"); n != 1 {
			t.Fatalf("engine.store.fault = %d, want 1", n)
		}
		if _, err := e.Analyze("x = 1\n"); err != nil {
			t.Fatal(err)
		}
		e.Flush()
		if disk.Len() != 2 {
			t.Fatalf("store holds %d blobs after a later write, want 2", disk.Len())
		}
	})
	t.Run("caller", func(t *testing.T) {
		// maxUnbuilt writes wait for the paused writer, so the faulty
		// run builds its own blob and the build panics on its goroutine.
		disk, reg := openStore(t, t.TempDir()), metrics.NewRegistry()
		e := faulty(disk, reg)
		pause(e)
		for k := 0; k < maxUnbuilt; k++ {
			if _, err := e.Analyze(fmt.Sprintf("x = %d\n", k)); err != nil {
				t.Fatal(err)
			}
		}
		if st, err := e.Analyze(persistSrc); err != nil || st.SSA == nil {
			t.Fatalf("Analyze did not return the live result past the failed build (%v)", err)
		}
		if n := reg.Counter("engine.store.fault"); n != 1 {
			t.Fatalf("engine.store.fault = %d after the caller's build, want 1", n)
		}
		resume(e)
		e.Flush()
		if n := reg.Counter("engine.store.fault"); n != 1 {
			t.Fatalf("engine.store.fault = %d after Flush, want 1", n)
		}
		if n := reg.Counter("engine.store.write"); n != maxUnbuilt {
			t.Fatalf("engine.store.write = %d, want %d: the failed build is no write", n, maxUnbuilt)
		}
		if disk.Len() != 2*maxUnbuilt {
			t.Fatalf("store holds %d blobs, want the %d other writes' entries and aliases", disk.Len(), 2*maxUnbuilt)
		}
	})
}

// TestWriteBehindConcurrentFlush: Analyze and Flush from many
// goroutines at once (run under -race) lose no write.
func TestWriteBehindConcurrentFlush(t *testing.T) {
	disk := openStore(t, t.TempDir())
	reg := metrics.NewRegistry()
	e := New(persistConfig(disk, reg, nil))
	var wg sync.WaitGroup
	const workers, each = 4, 8
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				if _, err := e.Analyze(fmt.Sprintf("s = %d\nt = %d\n", w, k)); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				e.Flush()
			}
		}()
	}
	wg.Wait()
	e.Flush()
	if n := reg.Counter("engine.store.write"); n != workers*each {
		t.Fatalf("engine.store.write = %d, want %d", n, workers*each)
	}
	if disk.Len() != 2*workers*each {
		t.Fatalf("store holds %d blobs, want %d", disk.Len(), 2*workers*each)
	}
}

// TestCachedStateDropsRun: a state the memory cache hands out carries
// no run — not the recorder, limits or arena of the run that built it —
// so a hit after a cancelled AnalyzeContext is not tied to that
// context. Each of the three ways a state enters the cache is checked:
// a fresh run, an alias hit and a structural hit.
func TestCachedStateDropsRun(t *testing.T) {
	disk := openStore(t, t.TempDir())
	warm := New(persistConfig(disk, nil, nil))
	if _, err := warm.Analyze(persistSrc); err != nil {
		t.Fatal(err)
	}
	warm.Flush()
	cfg := persistConfig(disk, nil, obs.New())
	cfg.CacheEntries = 4
	e := New(cfg)
	for _, tc := range []struct{ name, src string }{
		{"fresh", "x = 1\n"},
		{"alias hit", persistSrc},
		{"structural hit", "// edited\n" + persistSrc},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := e.AnalyzeContext(ctx, tc.src); err != nil {
			t.Fatal(err)
		}
		cancel()
		st, err := e.Analyze(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if st.Lim().Ctx != nil || st.Obs() != nil || st.Scratch() != nil {
			t.Errorf("%s: a cache hit carries its first run: ctx %v, recorder %v", tc.name, st.Lim().Ctx, st.Obs())
		}
	}
	e.Flush()
}
