// Command bivbench is the beyondiv benchmark. From the root of a
// checkout:
//
//	bash bench/run.sh [-workload corpus,scale,optimize,serve] [-seed N]
//	                  [-seconds S] [-trace 0|1] [-trace-dir DIR] [-out FILE]
//	bash bench/run.sh -update-golden
//
// Each workload runs in a fresh child process, so peak RSS, GC state and
// pooled arenas start cold. For each workload the command prints every
// metric by name with its unit and sample count, then, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced
// through the public surfaces; with -trace 1 they are the per-layer
// ones, and a Chrome trace of the spans is written under -trace-dir.
// With several workloads the metric names are prefixed "<workload>/".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"beyondiv/bench/harness"
)

var (
	workloads    = flag.String("workload", strings.Join(harness.Workloads, ","), "comma-separated workloads to run")
	seed         = flag.Int64("seed", 0, "input seed")
	seconds      = flag.Float64("seconds", 30, "measurement budget per workload, in seconds")
	trace        = flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	traceDir     = flag.String("trace-dir", ".bench_build/trace", "directory for the Chrome traces of a traced run")
	out          = flag.String("out", "", "write every result, with host and informational rows, to this JSON file")
	updateGolden = flag.Bool("update-golden", false, "regenerate bench/golden/seed0.json and exit")
	child        = flag.String("child", "", "run the single named workload in this process and write its result to this file")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bivbench:", err)
		os.Exit(1)
	}
}

func run() error {
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := harness.RepoRoot(cwd)
	if err != nil {
		return err
	}
	if *updateGolden {
		return harness.UpdateGolden(root)
	}
	names := strings.Split(*workloads, ",")
	if *child != "" {
		return runChild(root, names)
	}
	var results []*harness.Result
	for _, w := range names {
		r, err := spawn(root, w)
		if err != nil {
			return err
		}
		printResult(r)
		results = append(results, r)
	}
	if *out != "" {
		data, err := json.MarshalIndent(map[string]any{"seed": *seed, "trace": *trace == 1, "results": results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return summary(results)
}

// spawn runs one workload in a child process.
func spawn(root, workload string) (*harness.Result, error) {
	dir := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "result-*.json")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", path, "-workload", workload, "-seed", strconv.FormatInt(*seed, 10),
		"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", strconv.Itoa(*trace), "-trace-dir", *traceDir)
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	harness.KillWithParent(cmd)
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r harness.Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: result: %w", workload, err)
	}
	return &r, nil
}

func runChild(root string, names []string) error {
	if len(names) != 1 {
		return fmt.Errorf("-child runs exactly one workload, got %q", *workloads)
	}
	cfg := harness.Config{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Root: root}
	if cfg.Trace {
		cfg.TraceFile = filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", names[0], *seed))
	}
	r, err := harness.Run(names[0], cfg)
	if err != nil {
		return err
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(*child, data, 0o644)
}

// printResult writes a workload's rows: every metric by name, value, unit and
// sample count, then the informational rows and any failures.
func printResult(r *harness.Result) {
	mode := "untraced: end-to-end metrics"
	specs := harness.EndToEnd
	if r.Traced {
		mode, specs = "traced: per-layer metrics", harness.PerLayer
	}
	h := r.Host
	fmt.Printf("== %s  seed %d  %s  (%s %s/%s, %d CPUs, gomaxprocs %d, commit %s)\n",
		r.Workload, r.Seed, mode, h.GoVersion, h.OS, h.Arch, h.NumCPU, h.GOMAXPROCS, h.Commit)
	fmt.Printf("   attempted %d  failed %d  ok_frac %.6f\n", r.Attempted, r.Failed, r.OKFrac())
	for _, s := range specs {
		m := r.Metrics[s.Name]
		fmt.Printf("   %-34s %16.6f %-6s n=%d\n", s.Name, m.Value, m.Unit, m.Samples)
	}
	names := make([]string, 0, len(r.Info))
	for name := range r.Info {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Info[name]
		fmt.Printf("   info %-29s %16.6f %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	for _, f := range r.Failures {
		fmt.Printf("   FAIL %s\n", f)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary prints the final result line.
func summary(results []*harness.Result) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	for _, r := range results {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		specs := harness.EndToEnd
		if r.Traced {
			specs = harness.PerLayer
		}
		for _, s := range specs {
			name := s.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = metric{Value: r.Metrics[s.Name].Value, Unit: s.Unit}
		}
	}
	line.Correct = line.Failed == 0 && line.Attempted > 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
