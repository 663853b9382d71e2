// Command benchdiff compares two sets of bivbench results:
//
//	go -C bench run ./cmd/benchdiff OLD NEW
//
// OLD and NEW are each a results file written by bivbench -out, or a
// directory of them (one file per run, typically one per seed). For
// every workload and metric it prints each side's median and quartiles
// and a verdict against the bound BENCHMARK.json fixes for the metric:
//
//	regressed   NEW's median is worse than OLD's by more than the bound
//	improved    NEW's median is better by more than either side's spread
//	unchanged   neither
//	unresolved  a side's spread (interquartile range over median) is
//	            wider than the bound, and NEW does not beat OLD on every run
//
// Per-layer metrics carry no bound; they get medians and quartiles only.
// The exit status is 1 when any metric regressed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	"beyondiv/bench/harness"
)

type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type metricSpec struct {
	name, unit, better string
	bound              float64 // NaN: no bound
}

// runs maps workload → metric → one value per run.
type runs map[string]map[string][]float64

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD NEW   (results files or directories of them)")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	regressed, err := run(flag.Arg(0), flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if regressed {
		os.Exit(1)
	}
}

func run(oldPath, newPath string) (bool, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return false, err
	}
	root, err := harness.RepoRoot(cwd)
	if err != nil {
		return false, err
	}
	specs, err := loadSpecs(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	old, err := load(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := load(newPath)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, w := range harness.Workloads {
		if old[w] == nil || cur[w] == nil {
			continue
		}
		fmt.Printf("== %s\n", w)
		fmt.Printf("   %-34s %-36s %-36s %8s %6s  %s\n", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "bound", "verdict")
		for _, s := range specs {
			o, n := old[w][s.name], cur[w][s.name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			v := verdict(s, o, n)
			if v == "regressed" {
				regressed = true
			}
			bound := "-"
			if !math.IsNaN(s.bound) {
				bound = fmt.Sprintf("%.0f%%", 100*s.bound)
			}
			om, nm := median(o), median(n)
			delta := "-"
			if om != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(nm-om)/math.Abs(om))
			}
			fmt.Printf("   %-34s %-36s %-36s %8s %6s  %s\n", s.name, summary(o), summary(n), delta, bound, v)
		}
	}
	return regressed, nil
}

func loadSpecs(path string) ([]metricSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkSpec
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var out []metricSpec
	for _, m := range b.EndToEnd {
		out = append(out, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		out = append(out, metricSpec{m.Name, m.Unit, m.Better, math.NaN()})
	}
	return out, nil
}

// load reads one results file, or every *.json results file in a
// directory.
func load(path string) (runs, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	out := runs{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var doc struct {
			Results []harness.Result `json:"results"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range doc.Results {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, errors.New(path + ": no results")
	}
	return out, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// default "exclusive" method, and falls back to the extremes for fewer
// than two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func summary(xs []float64) string {
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

// worse returns how much worse b is than a, as a share of a.
func worse(s metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if s.better == "higher" {
		d = -d
	}
	return d
}

func verdict(s metricSpec, old, cur []float64) string {
	if math.IsNaN(s.bound) {
		return "-"
	}
	allBetter := true
	for _, o := range old {
		for _, n := range cur {
			if worse(s, o, n) >= 0 {
				allBetter = false
			}
		}
	}
	if spread(old) > s.bound || spread(cur) > s.bound {
		if allBetter {
			return "improved"
		}
		return "unresolved"
	}
	w := worse(s, median(old), median(cur))
	switch {
	case w > s.bound:
		return "regressed"
	case -w > max(spread(old), spread(cur)):
		return "improved"
	}
	return "unchanged"
}
