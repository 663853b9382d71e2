package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"beyondiv"
	"beyondiv/internal/depend"
	"beyondiv/internal/interp"
	"beyondiv/internal/iv"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/ssa"
)

// GoldenPath is where the committed report digests live.
func GoldenPath(root string) string {
	return filepath.Join(root, "bench", "golden", "seed0.json")
}

type goldenFile struct {
	Seed int64 `json:"seed"`
	// Reports maps sha256(source) to sha256(classification report, NUL,
	// dependence report).
	Reports map[string]string `json:"reports"`
}

// LoadGolden reads a golden digest file.
func LoadGolden(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return g.Reports, nil
}

// UpdateGolden rewrites the golden digests from a fresh sequential
// analysis of every non-paper corpus and scale program. Both workloads
// run the same programs at every seed.
func UpdateGolden(root string) error {
	g := goldenFile{Reports: map[string]string{}}
	an := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1})
	for _, w := range []string{"corpus", "scale"} {
		progs, err := Inputs(w, root, 0, false)
		if err != nil {
			return err
		}
		for _, p := range progs {
			if p.Paper != nil {
				continue
			}
			prog, err := an.Analyze(p.Source)
			if err != nil {
				return fmt.Errorf("%s: %w", p.Name, err)
			}
			g.Reports[digest(p.Source)] = reportDigest(prog.IV, prog.Deps)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(GoldenPath(root), append(data, '\n'), 0o644)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func reportDigest(a *iv.Analysis, d *depend.Result) string {
	deps := ""
	if d != nil {
		deps = d.Report()
	}
	return digest(a.Report() + "\x00" + deps)
}

// paperCheck checks a paper program's classifications and trip counts
// the way cmd/paperrepro does.
func paperCheck(p *paper.Program, a *iv.Analysis) error {
	for _, e := range p.Expect {
		l, v := a.LoopByLabel(e.Loop), a.ValueByName(e.Value)
		if l == nil || v == nil {
			return fmt.Errorf("%s: missing %s/%s", p.ID, e.Loop, e.Value)
		}
		got := a.ClassOf(l, v).String()
		if e.Nested {
			got = a.NestedString(a.ClassOf(l, v))
		}
		if got != e.Want && !(e.PrefixOnly && strings.HasPrefix(got, e.Want)) {
			return fmt.Errorf("%s: %s = %s, paper says %s", p.ID, e.Value, got, e.Want)
		}
	}
	for label, want := range p.TripCounts {
		l := a.LoopByLabel(label)
		if l == nil {
			return fmt.Errorf("%s: missing loop %s", p.ID, label)
		}
		if got := a.TripCount(l).String(); got != want {
			return fmt.Errorf("%s: trip(%s) = %s, paper says %s", p.ID, label, got, want)
		}
	}
	return nil
}

// reportOracle checks analysis outputs: paper programs against the
// paper, every other program against its golden digest or, for a
// program the golden file does not cover (a generator that changed since
// the file was written), against a fresh sequential analysis made before
// timing starts.
type reportOracle struct {
	want map[string]string // source digest → report digest
}

func newReportOracle(progs []Program, golden map[string]string) (*reportOracle, error) {
	o := &reportOracle{want: map[string]string{}}
	var ref *beyondiv.Analyzer
	for _, p := range progs {
		if p.Paper != nil {
			continue
		}
		k := digest(p.Source)
		if d, ok := golden[k]; ok {
			o.want[k] = d
			continue
		}
		if ref == nil {
			ref = beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1})
		}
		prog, err := ref.Analyze(p.Source)
		if err != nil {
			return nil, fmt.Errorf("reference analysis of %s: %w", p.Name, err)
		}
		o.want[k] = reportDigest(prog.IV, prog.Deps)
	}
	return o, nil
}

func (o *reportOracle) check(p Program, out *outcome) error {
	if p.Paper != nil {
		return paperCheck(p.Paper, out.iv)
	}
	if got, want := reportDigest(out.iv, out.deps), o.want[digest(p.Source)]; got != want {
		return fmt.Errorf("%s: report digest %.12s, want %.12s", p.Name, got, want)
	}
	return nil
}

// runParams is the parameter assignment the interpreter oracle runs at.
var runParams = map[string]int64{"n": 7, "m": 7, "k": 7}

// runRef is the AST interpreter's ground truth for one original program.
type runRef struct {
	stepLimit bool
	err       error
	cells     map[cell]int64
	scalars   map[string]int64
}

type cell struct {
	array string
	index int64
}

func finalCells(ws []interp.ArrayWrite) map[cell]int64 {
	m := make(map[cell]int64, len(ws))
	for _, w := range ws {
		m[cell{w.Array, w.Index}] = w.Value
	}
	return m
}

// interpOracle checks Optimize outputs: the original source runs on the
// AST interpreter, the optimized program on the SSA interpreter, and the
// final per-cell array contents and the original's scalars must match.
// A program that exhausts the step budget has no ground truth; the
// optimized one must then exhaust it too.
type interpOracle struct {
	refs map[string]runRef
}

func newInterpOracle(progs []Program) (*interpOracle, error) {
	o := &interpOracle{refs: map[string]runRef{}}
	for _, p := range progs {
		file, err := parse.File(p.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		res, err := interp.RunAST(file, interp.Config{Params: runParams})
		ref := runRef{stepLimit: errors.Is(err, interp.ErrStepLimit), err: err}
		if err == nil {
			ref.cells, ref.scalars = finalCells(res.Writes), res.Scalars
		}
		o.refs[p.Source] = ref
	}
	return o, nil
}

func (o *interpOracle) check(p Program, optimized *ssa.Info) error {
	ref := o.refs[p.Source]
	res, err := interp.RunSSA(optimized, interp.Config{Params: runParams})
	switch {
	case ref.stepLimit:
		if err == nil {
			return fmt.Errorf("%s: original exhausts the step budget, optimized program finished", p.Name)
		}
		return nil
	case ref.err != nil || err != nil:
		if (ref.err == nil) != (err == nil) {
			return fmt.Errorf("%s: run errors diverge: original %v, optimized %v", p.Name, ref.err, err)
		}
		return nil
	}
	cells := finalCells(res.Writes)
	if len(cells) != len(ref.cells) {
		return fmt.Errorf("%s: %d array cells written, want %d", p.Name, len(cells), len(ref.cells))
	}
	for c, v := range ref.cells {
		if got, ok := cells[c]; !ok || got != v {
			return fmt.Errorf("%s: %s[%d] = %d, want %d", p.Name, c.array, c.index, got, v)
		}
	}
	names := make([]string, 0, len(ref.scalars))
	for n := range ref.scalars {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if got, ok := res.Scalars[n]; !ok || got != ref.scalars[n] {
			return fmt.Errorf("%s: scalar %s = %d, want %d", p.Name, n, got, ref.scalars[n])
		}
	}
	return nil
}
