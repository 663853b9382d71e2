package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"beyondiv"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/serve"
)

// The smoke test runs every workload at its smallest size, without any
// assertion on time: it checks that each run is correct, that every
// named metric is emitted, that inputs follow the seed, and that the
// oracles catch a wrong answer.

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := RepoRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// inProcDaemon serves the bivd mux (serve.New on the debugserv mux) from
// this process, configured like cmd/bivd under the serve workload.
type inProcDaemon struct {
	srv *serve.Server
	ds  *debugserv.Server
}

func (d *inProcDaemon) Start(cacheDir string) (string, error) {
	reg := metrics.NewRegistry()
	d.srv = serve.New(serve.Config{
		Options:     beyondiv.Options{Jobs: 1, Parallel: 1, CacheEntries: serveCache, CacheDir: cacheDir, Metrics: reg},
		MaxInFlight: serveConns,
	})
	ds, err := debugserv.ServeWith("127.0.0.1:0", reg, nil, debugserv.Options{Health: d.srv.Health, Routes: d.srv.Register})
	if err != nil {
		return "", err
	}
	d.ds = ds
	return ds.Addr(), nil
}

func (d *inProcDaemon) Stop() error {
	if d.ds == nil {
		return nil
	}
	d.srv.Drain(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.ds.Shutdown(ctx)
	d.ds = nil
	return err
}

func (d *inProcDaemon) PID() int { return os.Getpid() }

func smallConfig(t *testing.T, trace bool) Config {
	return Config{Seed: 0, Seconds: 0.5, Trace: trace, Small: true, Root: testRoot(t), Daemon: &inProcDaemon{},
		TraceFile: filepath.Join(t.TempDir(), "trace.json")}
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(testRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, Workloads)
	}
	if len(b.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness emits %d", len(b.EndToEnd), len(EndToEnd))
	}
	for i, m := range b.EndToEnd {
		if s := EndToEnd[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, harness emits %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
	if len(b.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness emits %d", len(b.PerLayer), len(PerLayer))
	}
	for i, m := range b.PerLayer {
		if s := PerLayer[i]; m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer[%d] = %s %s %s, harness emits %s %s %s", i, m.Name, m.Unit, m.Better, s.Name, s.Unit, s.Better)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			specs := EndToEnd
			if trace {
				name, specs = w+"/traced", PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smallConfig(t, trace)
				r, err := Run(w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Attempted == 0 || r.Failed != 0 {
					t.Fatalf("attempted %d, failed %d: %v", r.Attempted, r.Failed, r.Failures)
				}
				for _, s := range specs {
					m, ok := r.Metrics[s.Name]
					if !ok {
						t.Errorf("metric %s not emitted", s.Name)
					} else if m.Unit != s.Unit {
						t.Errorf("metric %s in %s, want %s", s.Name, m.Unit, s.Unit)
					}
				}
				if len(r.Metrics) != len(specs) {
					t.Errorf("%d metrics emitted, want exactly %d", len(r.Metrics), len(specs))
				}
				if trace {
					if _, err := os.Stat(cfg.TraceFile); err != nil {
						t.Errorf("no Chrome trace: %v", err)
					}
				}
			})
		}
	}
}

func TestInputsFollowSeed(t *testing.T) {
	root := testRoot(t)
	sources := func(w string, seed int64) string {
		if w == "serve" {
			var b strings.Builder
			for _, rq := range newServeMix(seed).take(200) {
				b.Write(rq.body)
			}
			return b.String()
		}
		progs, err := Inputs(w, root, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, p := range progs {
			b.WriteString(p.Name + "\x00" + p.Source + "\x00")
		}
		return b.String()
	}
	for _, w := range Workloads {
		if sources(w, 3) != sources(w, 3) {
			t.Errorf("%s: seed 3 gave two different input sets", w)
		}
		if sources(w, 3) == sources(w, 4) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w)
		}
	}
}

func TestCorruptGoldenDigestFails(t *testing.T) {
	cfg := smallConfig(t, false)
	golden, err := LoadGolden(GoldenPath(cfg.Root))
	if err != nil {
		t.Fatal(err)
	}
	progs, err := Inputs("corpus", cfg.Root, cfg.Seed, cfg.Small)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(progs, func(p Program) bool { return p.Paper == nil })
	key := digest(progs[i].Source)
	if _, ok := golden[key]; !ok {
		t.Fatalf("%s has no golden digest", progs[i].Name)
	}
	golden[key] = strings.Repeat("0", 64)
	cfg.Golden = golden
	r, err := Run("corpus", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok := r.OKFrac(); ok >= 1 {
		t.Fatalf("ok_frac %v with a corrupted digest for %s", ok, progs[i].Name)
	}
}
