// The equivalence matrix (DESIGN.md §18). The paper's classification
// is a function of the program's SSA graph alone, so every path to a
// report must render the bytes a fresh sequential analysis renders.
// Each Test below is a column, named for the path it checks, that runs
// the table's rows as parallel subtests. Tier columns also assert that
// their tier answered: a hit that silently became a fresh run fails.
package beyondiv_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"beyondiv"
	"beyondiv/internal/ast"
	"beyondiv/internal/cliutil"
	"beyondiv/internal/codec"
	"beyondiv/internal/guard"
	"beyondiv/internal/interp"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/paper"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
	"beyondiv/internal/serve"
)

// A row is one program. opt selects its Optimize cells; marks, when not
// nil, label the loops its source runs chunked. Its references and its
// warm store are built once, for every column.
type row struct {
	name, src   string
	opt         int
	marks       []string
	ref, optRef func() reference
	store       func() (dir string, writes int64)
}

const (
	optNone = iota
	optRun  // one validated Optimize, for the Run and chunked cells
	optAll  // every Optimize path
)

func runs(r *row) bool      { return r.opt != optNone }
func optimizes(r *row) bool { return r.opt == optAll }
func failing(r *row) bool   { return strings.HasPrefix(r.name, "fail/") }

// small admits the failing rows and those of at most 1 KiB of source to
// the columns whose cost grows with the program but whose path does
// not: rendering order, the recorder, the memory cache, batches and
// bivd. Every row runs the fresh, parallel and store columns.
func small(r *row) bool { return failing(r) || len(r.src) <= 1<<10 }

// A view is what one path rendered for a row, by rendering name; a
// failed path renders its *Error's phase and the kind bivd gives it.
type view map[string]string

const unknownName = "nosuchvariable" // explained on every row

var (
	runParams = map[string]int64{"n": 7, "m": 7, "k": 7}            // every executed row's inputs
	seq       = beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1}) // the reference: sequential, no cache
	storeRoot string                                                // the rows' warm stores, while the tests run
)

func TestMain(m *testing.M) {
	var err error
	if storeRoot, err = os.MkdirTemp("", "beyondiv-matrix-"); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(storeRoot)
	os.Exit(code)
}

var table = sync.OnceValues(func() ([]*row, error) {
	var rows []*row
	add := func(opt int, name, src string) { rows = append(rows, &row{name: name, src: src, opt: opt}) }
	for _, p := range paper.Corpus {
		add(optAll, p.ID, p.Source)
	}
	examples, err := cliutil.ReadPrograms([]string{"examples"})
	if err != nil {
		return nil, err
	}
	for _, ex := range examples {
		add(optNone, filepath.Dir(ex.Path), ex.Text)
	}
	for _, n := range []int{2, 12, 33} {
		add(optNone, fmt.Sprint("large/", n), progen.Large(n))
	}
	for d := 2; d <= 4; d++ {
		add(optNone, fmt.Sprint("nested/", d), progen.NestedLoops(d))
	}
	add(optNone, "mixed", progen.MixedClasses(8))
	add(optNone, "straight", progen.StraightLineLoop(64))
	add(optNone, "mutual", progen.MutualChain(8))
	add(optNone, "derived", progen.DerivedChain(3))
	for _, s := range []int64{3, 7, 11} {
		add(optAll, fmt.Sprint("dep/", s), progen.DepWorkload(s))
	}
	// Of progen's programs these halt at runParams and write an array;
	// the others loop past the interpreter's step budget, where a Run
	// cell could only compare two step-limit errors.
	halting, gen := []int64{4, 12, 13, 26, 42, 43, 44, 45, 47, 49, 62}, progen.New()
	for k := int64(0); k < 64; k++ {
		opt := optNone
		if slices.Contains(halting, k) {
			opt = optRun
		}
		add(opt, fmt.Sprint("progen/", k), gen.Program(k))
	}
	// The chunked executor's shapes: uneven splits of 100 and 31
	// iterations, a last-writer scalar, a nest, a downward and a
	// zero-trip loop, and an unmarked carried recurrence.
	l1 := []string{"L1"}
	rows = append(rows,
		&row{name: "simple", src: "L1: for i = 0 to 99 {\n    a[i] = i * 3\n}\n", marks: l1},
		&row{name: "lastwriter", src: "s = 0\nL1: for i = 0 to 30 {\n    a[i] = a[i] + 5\n    s = i\n}\n", marks: l1},
		&row{name: "nest", src: "L1: for i = 0 to 9 {\n    L2: for j = 0 to 9 {\n        a[i * 100 + j] = i + j\n    }\n}\n", marks: l1},
		&row{name: "downward", src: "L1: for i = 50 to 1 by -1 {\n    a[i] = a[i] * 2\n}\n", marks: l1},
		&row{name: "zerotrip", src: "L1: for i = 5 to 1 {\n    a[i] = 1\n}\n", marks: l1},
		&row{name: "unmarked-falls-back", src: "s = 0\nL1: for i = 1 to 20 {\n    s = s + i\n    a[i] = s\n}\n", marks: []string{}})
	add(optAll, "fail/syntax", "j = )syntax error(")
	add(optAll, "fail/limit", progen.NestedLoops(65)) // deeper than guard.Default's MaxLoopDepth
	for _, r := range rows {
		r.ref = sync.OnceValue(func() reference { return referenceOf(r.src) })
		r.optRef = sync.OnceValue(func() reference { return optReferenceOf(r.src) })
		r.store = sync.OnceValues(func() (string, int64) {
			dir, err := os.MkdirTemp(storeRoot, "row")
			if err != nil {
				return "", 0 // no write: the store cells fail
			}
			return dir, warm(dir, r.src)
		})
	}
	return rows, nil
})

// rowsOf is the rows keep admits (nil admits all), in table order.
func rowsOf(t *testing.T, keep func(*row) bool) []*row {
	rows, err := table()
	if err != nil {
		t.Fatal(err)
	}
	return slices.DeleteFunc(slices.Clone(rows), func(r *row) bool { return keep != nil && !keep(r) })
}

func sources(rows []*row) (srcs []string) {
	for _, r := range rows {
		srcs = append(srcs, r.src)
	}
	return srcs
}

// eachRow runs column on every row keep admits, each a parallel
// subtest. The func it returns tells, once they have run, whether all
// did (a -run pattern may select some): a column's totals apply only then.
func eachRow(t *testing.T, keep func(*row) bool, column func(*testing.T, *row)) (all func() bool) {
	rows := rowsOf(t, keep)
	var ran atomic.Int64
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ran.Add(1)
			column(t, r)
		})
	}
	return func() bool { return ran.Load() == int64(len(rows)) }
}

// analysis and optimization are the row's references. They fail exactly
// on the fail/ rows, so no path passes a row by failing it the way its
// reference did.
func (r *row) analysis(t *testing.T) reference     { return r.checked(t, r.ref()) }
func (r *row) optimization(t *testing.T) reference { return r.checked(t, r.optRef()) }

func (r *row) checked(t *testing.T, ref reference) reference {
	t.Helper()
	if (ref.err != nil) != failing(r) {
		t.Fatalf("reference: %v", ref.err)
	}
	return ref
}

// A reference is a fresh sequential analysis, or a validated Optimize
// and its transformed AST (what the chunked cells run), and its
// live-keyed view.
type reference struct {
	prog *beyondiv.Program
	res  *beyondiv.OptimizeResult
	file *ast.File
	err  error
	keys []string
	want view
}

func referenceOf(src string) reference {
	p, err := seq.Analyze(src)
	keys := explainKeys(p, true)
	return reference{prog: p, err: err, keys: keys, want: render(p, err, keys)}
}

func optReferenceOf(src string) reference {
	o, file, err := seq.OptimizeAST(src)
	keys := []string{unknownName}
	if err == nil {
		keys = explainKeys(o.Program, true)
	}
	return reference{res: o, file: file, err: err, keys: keys, want: renderOpt(o, err, keys)}
}

// explainKeys is every name p explains, plus an unknown one. live keeps
// the keys that are not SSA value names (source variables and stripped
// bases): their chains hold every version's, at a fifth of the cost.
func explainKeys(p *beyondiv.Program, live bool) []string {
	if p == nil {
		return []string{unknownName}
	}
	keys := p.IV.ExplainKeys()
	if live {
		keys = slices.DeleteFunc(keys, func(k string) bool { return p.IV.ValueByName(k) != nil })
	}
	return append(keys, unknownName)
}

// render is a Program's view, explaining keys; only a live one has a DOT graph.
func render(p *beyondiv.Program, err error, keys []string) view {
	if err != nil {
		var e *beyondiv.Error
		if !errors.As(err, &e) {
			return view{"error": err.Error()}
		}
		kind, le := "input", (*guard.LimitError)(nil)
		if errors.As(err, &le) {
			kind = "limit"
		}
		return view{"phase": e.Phase, "kind": kind}
	}
	js, _ := json.Marshal(p.ReportData()) // plain data: cannot fail
	v := view{"classification": p.ClassificationReport(), "dependences": p.DependenceReport(),
		"reportjson": string(js), "explaindeps": p.ExplainAllDeps()}
	for _, k := range keys {
		v["explain "+k] = p.Explain(k)
	}
	if !p.Decoded() {
		v["dot"] = p.Deps.DOT()
	}
	return v
}

// renderOpt adds the transformed SSA and the pass outcome to the program's view.
func renderOpt(res *beyondiv.OptimizeResult, err error, keys []string) view {
	if err != nil {
		return render(nil, err, nil)
	}
	v := render(res.Program, nil, keys)
	v["ssa"] = res.Program.SSA.Func.String()
	v["outcome"] = outcome(res.Stats, res.Rounds, res.Rewrites, res.Validations, res.ParallelLoops)
	return v
}

func outcome(stats []beyondiv.PassStat, rounds, rewrites, validations int, parallel []string) string {
	return fmt.Sprintf("stats %v rounds %d rewrites %d validations %d parallel %v",
		stats, rounds, rewrites, validations, parallel)
}

// undotted drops the DOT graph, which the store does not keep.
func undotted(v view) view {
	c := maps.Clone(v)
	delete(c, "dot")
	return c
}

// cell fails the row unless a path rendered the reference's view.
func cell(t *testing.T, path string, want, got view) {
	t.Helper()
	for k, w := range want {
		if g, ok := got[k]; !ok || g != w {
			t.Errorf("%s: %s differs\n--- reference ---\n%s\n--- %s ---\n%s", path, k, w, path, g)
			return
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: renders %d views, the reference %d", path, len(got), len(want))
	}
}

// freshCell: the reference analyzer, which has no cache, analyzes src
// again, from artifacts of its own, to the same bytes.
func freshCell(t *testing.T, src string, ref reference) {
	p, err := seq.Analyze(src)
	cell(t, "fresh again", ref.want, render(p, err, ref.keys))
	if err == nil && ref.prog != nil && (p.IV == ref.prog.IV || p.Deps == ref.prog.Deps || p.SSA == ref.prog.SSA) {
		t.Error("fresh again: artifacts shared with the reference")
	}
}

// memoryHitCell: an analyzer with a memory cache counts one miss, then
// one hit that returns the first run's very artifacts.
func memoryHitCell(t *testing.T, src string, ref reference) {
	reg := metrics.NewRegistry()
	an := beyondiv.NewAnalyzer(beyondiv.Options{CacheEntries: 2, Metrics: reg})
	first, _ := an.Analyze(src) // a failure must repeat: the hit's view carries its phase
	hit, err := an.Analyze(src)
	cell(t, "memory hit", ref.want, render(hit, err, ref.keys))
	if err == nil && (first == nil || reg.Counter("engine.cache.miss") != 1 || reg.Counter("engine.cache.hit") != 1 ||
		hit.IV != first.IV || hit.Deps != first.Deps || hit.SSA != first.SSA) {
		t.Error("memory hit: not one miss then one hit, or the artifacts are not the cached ones")
	}
}

// parallelCells analyzes src at each width, up to the first whose
// dependence sweep does not fan out (narrower rows take the sequential
// sweep at every width; later widths must fan out where the first did),
// and returns how many fanned out.
func parallelCells(t *testing.T, src string, ref reference, widths ...int) (fanned int64) {
	for _, w := range widths {
		reg := metrics.NewRegistry()
		p, err := beyondiv.NewAnalyzer(beyondiv.Options{Parallel: w, Metrics: reg}).Analyze(src)
		cell(t, fmt.Sprint("parallel ", w), ref.want, render(p, err, ref.keys))
		if reg.Counter("engine.par.depend.runs") == 0 {
			if w != widths[0] {
				t.Errorf("parallel %d: the dependence sweep did not fan out where width %d's did", w, widths[0])
			}
			break
		}
		fanned++
	}
	return fanned
}

// batchCells: AnalyzeAll at each width renders each row's reference in
// input order.
func batchCells(t *testing.T, srcs []string, refs func(i int) reference, widths ...int) {
	for _, jobs := range widths {
		results := beyondiv.AnalyzeBatch(srcs, beyondiv.Options{Jobs: jobs})
		if len(results) != len(srcs) {
			t.Errorf("batch jobs %d: %d results for %d sources", jobs, len(results), len(srcs))
			continue
		}
		for i, b := range results {
			if ref := refs(i); b.Index != i {
				t.Errorf("batch jobs %d: entry %d carries index %d", jobs, i, b.Index)
			} else {
				cell(t, fmt.Sprint("batch jobs ", jobs, " entry ", i), ref.want, render(b.Program, b.Err, ref.keys))
			}
		}
	}
}

// warm writes src's analysis to the store in dir, as a first process
// would, and counts the writes. AnalyzeWith returns once they are on
// disk.
func warm(dir, src string) (writes int64) {
	reg := metrics.NewRegistry()
	beyondiv.AnalyzeWith(src, beyondiv.Options{CacheDir: dir, Metrics: reg})
	return reg.Counter("engine.store.write")
}

// stored is the row's warm store, which must hold its analysis. Each
// cell reads it with an analyzer of its own, as a restarted process.
func (r *row) stored(t *testing.T) string {
	dir, writes := r.store()
	if !failing(r) && writes != 1 {
		t.Fatal("warm store: the analysis was not written")
	}
	return dir
}

// fromDisk analyzes src over the store in dir, as a restarted process
// would; any write it makes is on disk when it returns.
func fromDisk(dir, src string) (*beyondiv.Program, *metrics.Registry, error) {
	reg := metrics.NewRegistry()
	p, err := beyondiv.AnalyzeWith(src, beyondiv.Options{CacheDir: dir, Metrics: reg})
	return p, reg, err
}

// edits numbers the comment line each structural read prepends: a hit
// leaves an alias for the source it served, so the same source read
// again (as under -count) would answer from the alias tier.
var edits atomic.Int64

func edited(src string) string { return fmt.Sprintf("// edit %d\n%s", edits.Add(1), src) }

// structuralCell: the warm store in dir serves src after a comment line
// and re-indentation from its structural entry.
func structuralCell(t *testing.T, dir, src string, ref reference) {
	p, reg, err := fromDisk(dir, edited(strings.ReplaceAll(src, "    ", "\t")+"\n"))
	if err == nil && (!p.Decoded() || reg.Counter("engine.store.hit.struct") != 1) {
		t.Error("structural hit: the reformatted source missed the store")
	}
	cell(t, "structural hit", undotted(ref.want), undotted(render(p, err, ref.keys)))
}

// renames α-renames a source that parses: every name prefixed with w,
// keeping their order (as bench's serve mix does), and the encoder's
// order-keeping twin table reversed, which breaks it. The store serves
// the first only if no name ends in a digit (codec's remap invariants),
// and never the second.
func renames(src string) (kept, reversed string, servable bool, names int) {
	file, err := parse.File(src)
	if err != nil {
		return "", "", false, 0
	}
	_, table := codec.StructuralHash(file)
	w, r := make([]string, len(table)), codec.RenameTable(table)
	slices.Reverse(r)
	servable = true
	for i, n := range table {
		w[i] = "w" + n
		servable = servable && strings.TrimRight(n, "0123456789") == n
	}
	text := file.String()
	return codec.RewriteSource(text, table, w), codec.RewriteSource(text, table, r), servable, len(table)
}

// reply is any /v1 response body or batch entry.
type reply struct {
	Classification, Dependences, Explain, Deps, Error, Kind, Phase string
	Rounds, Rewrites, Validations                                  int
	Passes                                                         []beyondiv.PassStat
	ParallelLoops                                                  []string `json:"parallel_loops"`
	Results                                                        []reply
}

// bivdCell compares a bivd body with want: a failure's phase, kind and
// (status not 0) 422, or the named renderings, empty explanations spelled out.
func bivdCell(t *testing.T, path string, want view, status int, r reply, keys ...string) {
	t.Helper()
	body := view{"classification": r.Classification, "dependences": r.Dependences, "explaindeps": r.Deps,
		"outcome": outcome(r.Passes, r.Rounds, r.Rewrites, r.Validations, r.ParallelLoops), "phase": r.Phase, "kind": r.Kind}
	got, exp := view{}, view{}
	if _, failed := want["phase"]; failed || r.Error != "" {
		keys = []string{"phase", "kind"}
		if status != 0 {
			got["status"], exp["status"] = strconv.Itoa(status), "422"
		}
	}
	for _, k := range keys {
		got[k], exp[k] = body[k], want[k]
		if name, ok := strings.CutPrefix(k, "explain "); ok {
			got[k] = r.Explain
			if exp[k] == "" {
				exp[k] = fmt.Sprintf("no loop defines a variable %q", name)
			}
		}
	}
	cell(t, path, exp, got)
}

func post(t *testing.T, url string, body map[string]any) (int, reply) {
	b, _ := json.Marshal(body) // strings and bools only
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r reply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, r
}

// chunked runs file with the labeled loops chunked at every width: each
// run must reproduce RunAST's writes, in order, and its scalars.
func chunked(t *testing.T, file *ast.File, labels []string) {
	marks := map[string]bool{}
	for _, l := range labels {
		marks[l] = true
	}
	cfg := interp.Config{Params: runParams}
	want, err := interp.RunAST(file, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 3, 7, 16} {
		got, err := interp.RunASTParallel(file, cfg, marks, w)
		if err != nil || !slices.Equal(got.Writes, want.Writes) || !maps.Equal(got.Scalars, want.Scalars) {
			t.Errorf("chunked at width %d diverges from RunAST (%v)", w, err)
		}
	}
}

// TestDeterministicReports: analyzing a program again renders the same
// bytes; map iteration order never leaks into a rendering.
func TestDeterministicReports(t *testing.T) {
	eachRow(t, nil, func(t *testing.T, r *row) { freshCell(t, r.src, r.analysis(t)) })
}

// TestDeterministicDOTAndJSON: a second analyzer's program, asked for
// its DOT graph and JSON first and its explanations last key first,
// renders the reference's bytes: renderings do not depend on order.
func TestDeterministicDOTAndJSON(t *testing.T) {
	eachRow(t, small, func(t *testing.T, r *row) {
		ref, early := r.analysis(t), view{}
		p, err := beyondiv.Analyze(r.src)
		if err == nil {
			js, _ := json.Marshal(p.ReportData()) // plain data: cannot fail
			early = view{"dot": p.Deps.DOT(), "reportjson": string(js)}
		}
		keys := slices.Clone(ref.keys)
		slices.Reverse(keys)
		v := render(p, err, keys)
		maps.Copy(v, early)
		cell(t, "dot and json first", ref.want, v)
	})
}

// TestNilRecorderEquivalence: a run with Obs on records spans and
// renders the reference's bytes.
func TestNilRecorderEquivalence(t *testing.T) {
	eachRow(t, small, func(t *testing.T, r *row) {
		ref, rec := r.analysis(t), obs.New()
		p, err := beyondiv.AnalyzeWith(r.src, beyondiv.Options{Parallel: 1, Obs: rec})
		cell(t, "obs", ref.want, render(p, err, ref.keys))
		if err == nil && len(rec.Spans()) == 0 {
			t.Error("obs: the run recorded no spans")
		}
	})
}

// TestCacheHitReturnsSameArtifacts: a memory hit is the first run's
// artifacts themselves.
func TestCacheHitReturnsSameArtifacts(t *testing.T) {
	eachRow(t, small, func(t *testing.T, r *row) { memoryHitCell(t, r.src, r.analysis(t)) })
}

// TestParallelMatchesSequential: the dependence sweep's fan-out, at
// Parallel 2 and, where it fans out, 4 and 7, is invisible in every
// rendering. Some row's sweep must fan out.
func TestParallelMatchesSequential(t *testing.T) {
	var fanned atomic.Int64
	all := eachRow(t, nil, func(t *testing.T, r *row) { fanned.Add(parallelCells(t, r.src, r.analysis(t), 2, 4, 7)) })
	t.Cleanup(func() {
		if all() && fanned.Load() == 0 {
			t.Error("parallel: no row's dependence sweep fanned out")
		}
	})
}

// TestAnalyzeAllMatchesSequential: AnalyzeAll at Jobs 2, 4 and 8.
func TestAnalyzeAllMatchesSequential(t *testing.T) {
	rows := rowsOf(t, small)
	batchCells(t, sources(rows), func(i int) reference { return rows[i].analysis(t) }, 2, 4, 8)
}

// TestPersistDecodedMatchesFresh: a second analyzer over the warm store
// counts an alias hit, and its Decoded program renders the live
// reference's bytes for every stored key.
func TestPersistDecodedMatchesFresh(t *testing.T) {
	eachRow(t, nil, func(t *testing.T, r *row) {
		ref := r.analysis(t)
		p, reg, err := fromDisk(r.stored(t), r.src)
		if err == nil && (!p.Decoded() || reg.Counter("engine.store.hit.alias") != 1) {
			t.Error("alias hit: a second analyzer over the store missed it")
		}
		all := explainKeys(ref.prog, false) // decoded programs answer every stored key
		cell(t, "alias hit", undotted(render(ref.prog, ref.err, all)), undotted(render(p, err, all)))
	})
}

// renamedRows is how many rows the α-rename tier serves: names ending
// in no digit, an entry the encoder's twin check proved renameable.
const renamedRows = 83

// TestPersistStructuralHit: the store's structural entry serves a
// comment line plus re-indentation, and an α-rename that keeps the
// names' order (rendering a fresh analysis of the renamed source); a
// rename that breaks the order misses without counting corruption.
func TestPersistStructuralHit(t *testing.T) {
	var renamed atomic.Int64
	all := eachRow(t, nil, func(t *testing.T, r *row) {
		ref, dir := r.analysis(t), r.stored(t)
		structuralCell(t, dir, r.src, ref)
		kept, reversed, servable, names := renames(r.src)
		if !servable { // a rename codec's remap invariants reject is not worth reading
			return
		}
		rref := referenceOf(kept)
		p, reg, err := fromDisk(dir, edited(kept))
		served := err == nil && p.Decoded()
		if served {
			renamed.Add(1)
			if reg.Counter("engine.store.hit.struct") != 1 {
				t.Error("α-rename hit: not served from the structural entry")
			}
		}
		cell(t, "α-rename", undotted(rref.want), undotted(render(p, err, rref.keys)))
		// A miss costs a cold store write: the order-breaking rename
		// runs on the rows the Optimize paths use.
		if served && optimizes(r) && names > 1 {
			if p, reg, err := fromDisk(dir, reversed); err != nil || p.Decoded() || reg.Counter("engine.store.corrupt") != 0 {
				t.Errorf("α-rename: an order-breaking rename was served, counted as corruption, or failed (%v)", err)
			}
			served = false
		}
		if !served { // the miss rewrote the structural entry: rebuild the store
			os.RemoveAll(dir)
			warm(dir, r.src)
		}
	})
	t.Cleanup(func() {
		if n := renamed.Load(); all() && n != renamedRows {
			t.Errorf("the α-rename tier served %d rows, want %d", n, renamedRows)
		}
	})
}

// TestPersistCorruptionRecovers: a byte flipped in every stored blob
// changes no answer. The next analyzer counts the damage, re-analyzes
// to the reference's bytes and rewrites the store; a third warm-starts.
func TestPersistCorruptionRecovers(t *testing.T) {
	eachRow(t, func(r *row) bool { return optimizes(r) && !failing(r) }, func(t *testing.T, r *row) {
		ref, dir, damaged := r.analysis(t), t.TempDir(), 0
		warm(dir, r.src)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err == nil {
				b[len(b)/2] ^= 0xff
				damaged++
				err = os.WriteFile(path, b, 0o644)
			}
			return err
		})
		if err != nil || damaged == 0 {
			t.Fatalf("damaging the store: %v (%d blobs)", err, damaged)
		}
		p, reg, err := fromDisk(dir, r.src)
		cell(t, "corrupt store", ref.want, render(p, err, ref.keys))
		if err == nil && (p.Decoded() || reg.Counter("engine.store.corrupt") == 0) {
			t.Error("corrupt store: an entry was served, or the damage was not counted")
		}
		if p, reg, err := fromDisk(dir, r.src); err != nil || !p.Decoded() || reg.Counter("engine.store.hit.alias") != 1 {
			t.Errorf("corrupt store: not repaired by the re-analysis (%v)", err)
		}
	})
}

// TestBivdMatchesFacade: bivd's bodies carry the reference's renderings
// on /v1/batch over the rows, /v1/analyze, /v1/explain of every key
// (the last also asks for the dependences' provenance) and /v1/optimize;
// a failing row answers 422 with its phase. The server keeps a store,
// so the later calls render memory-cached states while the store's
// writer builds blobs from them.
func TestBivdMatchesFacade(t *testing.T) {
	rows, mux := rowsOf(t, small), http.NewServeMux()
	srv := serve.New(serve.Config{Options: beyondiv.Options{Parallel: 1, CacheEntries: len(rows), CacheDir: t.TempDir()}})
	srv.Register(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() { // after the rows, which run once this function returns
		ts.Close()
		srv.Drain(time.Second) // flushes the store before its directory goes
	})
	url := ts.URL + "/v1/"
	_, batch := post(t, url+"batch", map[string]any{"sources": sources(rows)})
	if len(batch.Results) != len(rows) {
		t.Fatalf("bivd batch: %d entries for %d sources", len(batch.Results), len(rows))
	}
	eachRow(t, small, func(t *testing.T, r *row) {
		ref := r.analysis(t)
		bivdCell(t, "bivd batch", ref.want, 0, batch.Results[slices.Index(rows, r)], "classification", "dependences")
		st, rep := post(t, url+"analyze", map[string]any{"source": r.src})
		bivdCell(t, "bivd analyze", ref.want, st, rep, "classification", "dependences")
		for _, k := range ref.keys {
			views := []string{"explain " + k}
			if k == unknownName { // the last key also asks for the dependences' provenance
				views = append(views, "explaindeps")
			}
			st, rep := post(t, url+"explain", map[string]any{"source": r.src, "var": k, "deps": k == unknownName})
			bivdCell(t, "bivd explain", ref.want, st, rep, views...)
		}
		if optimizes(r) {
			st, rep := post(t, url+"optimize", map[string]any{"source": r.src})
			bivdCell(t, "bivd optimize", r.optimization(t).want, st, rep, "classification", "dependences", "outcome")
		}
	})
}

// TestOptimizeDeterministic: validated Optimize renders the reference's
// transformed SSA, reports and pass outcome when run again, at Parallel
// 4, and on an analyzer whose memory cache holds the analysis.
func TestOptimizeDeterministic(t *testing.T) {
	eachRow(t, optimizes, func(t *testing.T, r *row) {
		o, mem := r.optimization(t), beyondiv.NewAnalyzer(beyondiv.Options{CacheEntries: 2})
		cached, _ := mem.Analyze(r.src) // a failure must repeat: the Optimize cells carry its phase
		for path, optimize := range map[string]func(string) (*beyondiv.OptimizeResult, error){
			"again":      beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1}).Optimize,
			"parallel 4": beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 4}).Optimize,
			"cached":     mem.Optimize,
		} {
			res, err := optimize(r.src)
			cell(t, "optimize "+path, o.want, renderOpt(res, err, o.keys))
			if path == "cached" && err == nil && (cached == nil || res.Original.SSA != cached.SSA) {
				t.Error("optimize cached: the analysis did not come from the memory cache")
			}
		}
	})
}

// TestOptimizeBatchMatchesSequential: OptimizeAll at Jobs 3 renders each
// row's reference in input order, failing rows included.
func TestOptimizeBatchMatchesSequential(t *testing.T) {
	rows := rowsOf(t, optimizes)
	results := beyondiv.OptimizeBatch(sources(rows), beyondiv.Options{Jobs: 3})
	if len(results) != len(rows) {
		t.Fatalf("optimize batch: %d results for %d sources", len(results), len(rows))
	}
	for i, b := range results {
		if o := rows[i].optimization(t); b.Index != i {
			t.Errorf("optimize batch: entry %d carries index %d", i, b.Index)
		} else {
			cell(t, "optimize batch jobs 3 entry "+rows[i].name, o.want, renderOpt(b.Result, b.Err, o.keys))
		}
	}
}

// TestRestructuredRunMatchesOriginal: Optimize succeeds wherever
// analysis does, and the optimized program runs like the original:
// each cell written alike (restructuring reorders across cells), every
// scalar kept.
func TestRestructuredRunMatchesOriginal(t *testing.T) {
	byCell := func(ws []interp.ArrayWrite) []interp.ArrayWrite {
		ws = slices.Clone(ws)
		slices.SortStableFunc(ws, func(a, b interp.ArrayWrite) int {
			return cmp.Or(strings.Compare(a.Array, b.Array), cmp.Compare(a.Index, b.Index))
		})
		return ws
	}
	eachRow(t, runs, func(t *testing.T, r *row) {
		if o := r.optimization(t); o.err == nil {
			orig, err := o.res.Original.Run(runParams)
			if err != nil {
				t.Fatal(err)
			}
			xf, err := o.res.Program.Run(runParams)
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			if !slices.Equal(byCell(orig.Writes), byCell(xf.Writes)) {
				t.Errorf("the optimized writes differ per cell (%d writes, originally %d)", len(xf.Writes), len(orig.Writes))
			}
			for name, v := range orig.Scalars {
				if g, ok := xf.Scalars[name]; !ok || g != v {
					t.Errorf("scalar %s = %d optimized, %d originally", name, g, v)
				}
			}
		}
	})
}

// TestParallelExecutionDeterminism: chunked execution reproduces RunAST's
// writes, in order, and scalars at every width, under the hand-written
// rows' marks and every Optimize row's ParallelLoops.
func TestParallelExecutionDeterminism(t *testing.T) {
	eachRow(t, func(r *row) bool { return r.marks != nil || runs(r) }, func(t *testing.T, r *row) {
		if r.marks != nil {
			file, err := parse.File(r.src)
			if err != nil {
				t.Fatal(err)
			}
			chunked(t, file, r.marks)
		} else if o := r.optimization(t); o.err == nil {
			chunked(t, o.file, o.res.ParallelLoops)
		}
	})
}

// FuzzEquivalence runs the matrix's cheap columns on arbitrary input:
// an input the reference rejects must be rejected on every column, in
// the same phase.
func FuzzEquivalence(f *testing.F) {
	for _, s := range append(slices.Clone(fuzzSeeds), adversarialSeeds()...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		ref, dir := referenceOf(src), t.TempDir()
		freshCell(t, src, ref)
		memoryHitCell(t, src, ref)
		if warm(dir, src) != 1 && ref.err == nil {
			t.Fatal("warm store: the analysis was not written")
		}
		structuralCell(t, dir, src, ref)
		parallelCells(t, src, ref, 4)
		batchCells(t, []string{src, src}, func(int) reference { return ref }, 2)
	})
}
