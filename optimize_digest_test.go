package beyondiv_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// digestTable holds one line per program: its name and the SHA-256 of
// what default Optimize produced for it.
const digestTable = "testdata/optimize_digests.txt"

// digestPrograms are the pinned programs, by name: the paper corpus,
// the examples, and two of the benchmark's DepWorkload ranges.
func digestPrograms(t *testing.T) (names, srcs []string) {
	add := func(name, src string) { names, srcs = append(names, name), append(srcs, src) }
	for i, p := range paper.Corpus {
		add(fmt.Sprintf("paper/%d/%s", i, p.ID), p.Source)
	}
	examples, err := cliutil.ReadPrograms([]string{"examples"})
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range examples {
		add(filepath.ToSlash(filepath.Dir(ex.Path)), ex.Text)
	}
	for k := int64(0); k < 96; k++ {
		add(fmt.Sprint("dep/", k), progen.DepWorkload(k))
	}
	for k := int64(0); k < 200; k++ {
		add(fmt.Sprint("dep/2^32+", k), progen.DepWorkload(1<<32+k))
	}
	return names, srcs
}

// optimizeDigest hashes every field of a default Optimize that a
// transform could move: the pass outcome, the transformed SSA, both
// reports and every dependence's explanation.
func optimizeDigest(res *beyondiv.OptimizeResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "stats %v rounds %d rewrites %d validations %d parallel %v\x00",
		res.Stats, res.Rounds, res.Rewrites, res.Validations, res.ParallelLoops)
	for _, s := range []string{res.Program.SSA.Func.String(), res.Program.ClassificationReport(),
		res.Program.DependenceReport(), res.Program.ExplainAllDeps()} {
		fmt.Fprintf(h, "%s\x00", s)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestOptimizeDigests pins what default Optimize produces. The
// equivalence matrix compares paths with each other, so a change that
// moves every path alike passes it; this table fails it. A change that
// means to move results replaces the lines the failure prints.
func TestOptimizeDigests(t *testing.T) {
	if beyondiv.RaceEnabled {
		t.Skip("hundreds of validated optimizations; the race build adds nothing to a digest")
	}
	f, err := os.Open(digestTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	names, srcs := digestPrograms(t)
	if len(want) != len(names) {
		t.Errorf("%s has %d programs, the test %d", digestTable, len(want), len(names))
	}
	an := beyondiv.NewAnalyzer(beyondiv.Options{})
	for i, src := range srcs {
		res, err := an.Optimize(src)
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
			continue
		}
		if got := optimizeDigest(res); got != want[names[i]] {
			t.Errorf("%s: digest moved; the table's line would be\n%s %s", names[i], names[i], got)
		}
	}
}
