package beyondiv_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"beyondiv"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/paper"
	"beyondiv/internal/progen"
)

// sevenPasses is every registered pass, normalize included, spelled
// out so the seven-pass table does not move with the vocabulary.
var sevenPasses = []string{"normalize", "peel", "interchange", "distribute", "strength", "dce", "parmark"}

// digestTables hold one line per program: its name and the SHA-256 of
// what Optimize produced for it under the table's pipeline (nil: the
// default). The seven-pass table keeps normalize, which the default
// leaves out, pinned.
var digestTables = []struct {
	name, path string
	passes     []string
}{
	{"seven", "testdata/optimize_digests.txt", sevenPasses},
	{"default", "testdata/optimize_digests_default.txt", nil},
}

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

// optimizeDigest hashes every field of an Optimize that a transform
// could move: the pass outcome, the transformed SSA, both
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

// TestOptimizeDigests pins what Optimize produces under each table's
// pipeline. The equivalence matrix compares paths with each other, so a
// change that moves every path alike passes it; these tables fail it. A
// change that means to move results replaces the lines the failure
// prints.
func TestOptimizeDigests(t *testing.T) {
	if beyondiv.RaceEnabled {
		t.Skip("hundreds of validated optimizations; the race build adds nothing to a digest")
	}
	names, srcs := digestPrograms(t)
	for _, tab := range digestTables {
		t.Run(tab.name, func(t *testing.T) {
			want := readDigests(t, tab.path)
			if len(want) != len(names) {
				t.Errorf("%s has %d programs, the test %d", tab.path, len(want), len(names))
			}
			an := beyondiv.NewAnalyzer(beyondiv.Options{Passes: tab.passes})
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
		})
	}
}

// readDigests reads a digest table into a map from program name to sum.
func readDigests(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
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
	return want
}

// TestOptimizeNormalizationInvariance is E23 over the whole Optimize:
// on the digest programs, every loop the seven-pass pipeline marks
// parallel that holds a store is marked by the default pipeline too,
// and the default marks no loop that holds no store. With normalize,
// distribute splits off loops that only recompute the index its
// preamble introduced, and parmark marks those.
func TestOptimizeNormalizationInvariance(t *testing.T) {
	if beyondiv.RaceEnabled {
		t.Skip("hundreds of validated optimizations; the race build adds nothing to a mark")
	}
	names, srcs := digestPrograms(t)
	seven := beyondiv.NewAnalyzer(beyondiv.Options{Passes: sevenPasses})
	def := beyondiv.NewAnalyzer(beyondiv.Options{})
	var sevenStore, sevenBare, defStore int
	for i, src := range srcs {
		withNorm, err := seven.Optimize(src)
		if err != nil {
			t.Fatalf("%s: seven passes: %v", names[i], err)
		}
		res, err := def.Optimize(src)
		if err != nil {
			t.Fatalf("%s: default: %v", names[i], err)
		}
		stores := beyondiv.StoredArrays(withNorm.Program)
		for _, l := range withNorm.ParallelLoops {
			if len(stores[l]) == 0 {
				sevenBare++
				continue
			}
			sevenStore++
			if !slices.Contains(res.ParallelLoops, l) {
				t.Errorf("%s: the seven passes mark %s, which holds a store; the default marks %v",
					names[i], l, res.ParallelLoops)
			}
		}
		stores = beyondiv.StoredArrays(res.Program)
		for _, l := range res.ParallelLoops {
			if len(stores[l]) == 0 {
				t.Errorf("%s: the default marks %s, which holds no store", names[i], l)
				continue
			}
			defStore++
		}
	}
	t.Logf("parallel loops holding a store: seven passes %d, default %d; holding none: seven passes %d",
		sevenStore, defStore, sevenBare)
}
