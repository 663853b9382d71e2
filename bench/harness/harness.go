// Package harness is the beyondiv benchmark: four seeded workloads driven
// through the system's public surfaces, each checked against an
// independent oracle, with end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run.
//
// Workloads (see README.md for why each was chosen):
//
//	corpus    cold Analyze over many small programs (paper, examples, progen)
//	scale     cold Analyze of the §7 linearity sweep and the parallel-tier shape
//	optimize  validated Optimize over the paper programs and loop nests
//	serve     a real bivd process under a seeded traffic mix, then a restart
//
// Every workload reports the same end-to-end metric names (EndToEnd) and,
// when traced, the same per-layer names (PerLayer): a layer a workload does
// not exercise on its own is measured by direct calls on that workload's
// programs, so every number describes the workload's inputs.
package harness

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Workloads lists the workload names in their canonical order.
var Workloads = []string{"corpus", "scale", "optimize", "serve"}

// Spec names one metric: its unit and which direction is better.
type Spec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd is every metric an untraced run reports, for every workload.
var EndToEnd = []Spec{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
}

// analysisLayers are the engine's analysis passes, in pipeline order.
var analysisLayers = []string{"parse", "cfgbuild", "ssa", "loops", "sccp", "iv", "depend"}

// driftLayers are the layers whose per-node cost the E16 drift compares.
var driftLayers = []string{"parse", "cfgbuild", "ssa", "loops", "sccp", "iv"}

// xformPasses are the default transform pipeline's passes, in order.
var xformPasses = []string{"normalize", "peel", "interchange", "distribute", "strength", "ivsub", "dce", "parmark"}

// PerLayer is every metric a traced run reports, for every workload.
var PerLayer = perLayerSpecs()

func perLayerSpecs() []Spec {
	s := []Spec{{"scan.us_per_op", "us", "lower"}, {"scan.allocs_per_op", "count", "lower"}}
	for _, l := range analysisLayers {
		s = append(s, Spec{l + ".us_per_op", "us", "lower"}, Spec{l + ".allocs_per_op", "count", "lower"})
	}
	for _, l := range driftLayers {
		s = append(s, Spec{l + ".drift", "ratio", "lower"})
	}
	s = append(s,
		Spec{"par.iv_speedup", "ratio", "higher"},
		Spec{"par.depend_speedup", "ratio", "higher"},
		Spec{"par.classify_units_per_op", "count", "higher"},
		Spec{"par.depend_pairs_per_op", "count", "higher"},
		Spec{"engine.clone_us_per_op", "us", "lower"},
		Spec{"engine.reanalyze_us_per_op", "us", "lower"},
		Spec{"engine.reanalyze_calls_per_op", "count", "lower"},
		Spec{"engine.rounds_per_op", "count", "lower"},
	)
	for _, p := range xformPasses {
		s = append(s, Spec{"xform." + p + ".us_per_op", "us", "lower"}, Spec{"xform." + p + ".rewrites_per_op", "count", "higher"})
	}
	s = append(s,
		Spec{"validate.us_per_op", "us", "lower"},
		Spec{"validate.calls_per_op", "count", "lower"},
		Spec{"validate.funcs_us_per_call", "us", "lower"},
		Spec{"validate.parallel_us_per_call", "us", "lower"},
		Spec{"interp.ssa_us_per_run", "us", "lower"},
		Spec{"interp.ast_us_per_run", "us", "lower"},
		Spec{"codec.hash_us_per_op", "us", "lower"},
		Spec{"codec.twin_us_per_op", "us", "lower"},
		Spec{"codec.encode_us_per_op", "us", "lower"},
		Spec{"codec.decode_us_per_op", "us", "lower"},
		Spec{"codec.blob_bytes", "bytes", "lower"},
		Spec{"store.put_us_per_op", "us", "lower"},
		Spec{"store.get_us_per_op", "us", "lower"},
		Spec{"store.write_overhead_us_per_op", "us", "lower"},
		Spec{"cache.hit_ratio", "ratio", "higher"},
		Spec{"store.alias_hit_ratio", "ratio", "higher"},
		Spec{"store.struct_hit_ratio", "ratio", "higher"},
		Spec{"gc.cpu_frac", "ratio", "lower"},
		Spec{"gc.cycles_per_op", "count", "lower"},
		Spec{"trace.overhead_frac", "ratio", "lower"},
	)
	return s
}

// Metric is one measured value. Samples is how many observations it
// summarizes (operations, passes, requests or set-ups).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// Host describes the machine a result was measured on.
type Host struct {
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

// HostInfo records the current machine and the commit the binary was
// built from ("unknown" outside a git checkout).
func HostInfo() Host {
	h := Host{
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified && h.Commit != "unknown" {
			h.Commit += "+dirty"
		}
	}
	return h
}

// Result is one workload run's outcome.
type Result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Failures holds the first few failure descriptions.
	Failures []string `json:"failures,omitempty"`
	// Metrics holds every EndToEnd metric (untraced runs) or every
	// PerLayer metric (traced runs).
	Metrics map[string]Metric `json:"metrics"`
	// Info holds informational rows: per-phase and per-program numbers
	// that carry no regression bound.
	Info map[string]Metric `json:"info,omitempty"`
	Host Host              `json:"host"`
}

const maxFailures = 8

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *Result) set(name string, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		// No observation (an empty probe); JSON cannot carry NaN.
		v = 0
	}
	for _, s := range EndToEnd {
		if s.Name == name {
			r.Metrics[name] = Metric{Value: v, Unit: s.Unit, Samples: samples}
			return
		}
	}
	for _, s := range PerLayer {
		if s.Name == name {
			r.Metrics[name] = Metric{Value: v, Unit: s.Unit, Samples: samples}
			return
		}
	}
	panic("harness: unknown metric " + name)
}

func (r *Result) info(name, unit string, v float64, samples int) {
	r.Info[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// OKFrac is the share of attempted operations that succeeded and
// matched their oracle.
func (r *Result) OKFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Attempted-r.Failed) / float64(r.Attempted)
}

// Config parameterizes one workload run.
type Config struct {
	Seed int64
	// Seconds is the measurement budget of the run.
	Seconds float64
	// Trace selects the traced run: per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// Small shrinks every workload to its smallest inputs (the smoke test).
	Small bool
	// Root is the repository root: examples/, bench/golden/ and the
	// .bench_build/ scratch area are found under it.
	Root string
	// Golden maps a source digest to its report digest. Nil loads
	// bench/golden/seed0.json.
	Golden map[string]string
	// TraceFile, when set on a traced run, receives the Chrome trace.
	TraceFile string
	// Daemon starts bivd for the serve workload; nil builds and executes
	// cmd/bivd from Root.
	Daemon Daemon
}

// scratchDir returns a fresh directory under Root/.bench_build/tmp.
func (c *Config) scratchDir(pattern string) (string, error) {
	base := filepath.Join(c.Root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// Run executes one workload in this process.
func Run(workload string, cfg Config) (*Result, error) {
	if cfg.Seconds <= 0 {
		return nil, errors.New("harness: Seconds must be positive")
	}
	if cfg.Root == "" {
		return nil, errors.New("harness: Root is required")
	}
	if cfg.Golden == nil {
		g, err := LoadGolden(GoldenPath(cfg.Root))
		if err != nil {
			return nil, err
		}
		cfg.Golden = g
	}
	r := &Result{Workload: workload, Seed: cfg.Seed, Traced: cfg.Trace,
		Metrics: map[string]Metric{}, Info: map[string]Metric{}, Host: HostInfo()}
	var err error
	switch workload {
	case "corpus", "scale", "optimize":
		err = runLibrary(workload, &cfg, r)
	case "serve":
		err = runServe(&cfg, r)
	default:
		return nil, fmt.Errorf("harness: unknown workload %q (have %s)", workload, strings.Join(Workloads, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if !cfg.Trace {
		r.set("ok_frac", r.OKFrac(), r.Attempted)
	}
	return r, nil
}

// RepoRoot walks up from dir to the directory holding the beyondiv
// module's go.mod.
func RepoRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if f, err := os.Open(filepath.Join(dir, "go.mod")); err == nil {
			line, _ := bufio.NewReader(f).ReadString('\n')
			f.Close()
			if strings.TrimSpace(line) == "module beyondiv" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("harness: no beyondiv checkout above the working directory")
		}
		dir = parent
	}
}

// peakRSSMB reads the peak resident set (VmHWM) of process pid.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set. Where the kernel refuses, VmHWM keeps the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// residentMB reads the current resident set of process pid.
func residentMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/%d/statm", pid)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssSampler reads a process's resident set every rssEvery until
// finished; the serve workload samples the daemon with it.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

const rssEvery = 50 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := residentMB(pid); err == nil {
				s.mb = append(s.mb, mb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.mb
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
