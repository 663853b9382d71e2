// Package beyondiv is a Go implementation of "Beyond Induction
// Variables" (Michael Wolfe, PLDI 1992): a unified, single-pass
// classification of every integer scalar in every loop of a program —
// linear, polynomial and geometric induction variables, wrap-around,
// periodic and monotonic variables — computed by running Tarjan's
// strongly-connected-region algorithm over the Static Single Assignment
// graph, plus the data dependence testing the classification enables.
//
// The package is a facade over the analysis engine (internal/engine),
// which executes the pipeline as explicit passes:
//
//	source → scan/parse → CFG → SSA (Cytron et al.) → loop nest →
//	constant propagation (Wegman–Zadeck) → IV classification →
//	dependence testing
//
// Quick start:
//
//	prog, err := beyondiv.Analyze(`
//	    j = 0
//	    L1: for i = 1 to n {
//	        j = j + i
//	        a[j] = a[j - 1]
//	    }
//	`)
//	fmt.Print(prog.ClassificationReport())
//	fmt.Print(prog.DependenceReport())
//
// For corpora there is a batch mode — AnalyzeBatch fans sources out
// over a bounded worker pool — and a content-addressed result cache
// (NewAnalyzer with Options.CacheEntries) that makes repeated analysis
// of hot sources a hash and a map hit.
//
// Programs are written in a small loop language with `for v = lo to hi
// [by s]`, `loop { ... exit ... }`, `while`, `if`/`else`, integer
// scalars, and one-dimensional arrays `a[expr]`; see internal/parse for
// the grammar.
package beyondiv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"beyondiv/internal/codec"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/guard"
	"beyondiv/internal/interp"
	"beyondiv/internal/iv"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/ssa"
	"beyondiv/internal/store"
	"beyondiv/internal/xform"
)

// Program is a fully analyzed program.
//
// A program normally carries the live analysis (IV, Deps, SSA, Loops).
// When it was served from the persistent disk cache (Options.CacheDir)
// those fields are nil — only the rendered artifacts survive
// serialization — and Decoded reports true; the report and explain
// methods answer identically either way, while Run, RunSteps and
// ExplainDep need the live form.
type Program struct {
	// IV is the induction-variable classification (the paper's core
	// algorithm); see its ClassOf, TripCount, IterFormOf and
	// NestedString methods.
	IV *iv.Analysis
	// Deps is the dependence analysis of §6.
	Deps *depend.Result
	// SSA exposes the underlying SSA-form function.
	SSA *ssa.Info
	// Loops is the loop nest.
	Loops *loops.Forest

	// art is the decoded artifact backing a program served from the
	// persistent cache; nil for live analyses.
	art *codec.Artifact
}

// Decoded reports whether this program was served from the persistent
// disk cache, carrying rendered artifacts instead of a live analysis.
func (p *Program) Decoded() bool { return p.art != nil }

// Options configure Analyze, NewAnalyzer and AnalyzeBatch.
type Options struct {
	// SkipDependences skips the §6 dependence analysis.
	SkipDependences bool
	// Dependences forwards options to the dependence tester.
	Dependences depend.Options
	// IV forwards the classifier's ablation switches (closed forms,
	// exit values); the zero value enables everything.
	IV iv.Options
	// Obs, when non-nil, records phase spans, counters and provenance
	// events across every pipeline stage (see internal/obs). Nil keeps
	// telemetry off at no cost. Concurrent runs sharing one recorder
	// interleave their spans in its tree; batch workers record into
	// forks of this recorder instead, merged back when the batch
	// completes.
	Obs *obs.Recorder
	// Metrics, when non-nil, receives the process-lifetime aggregates
	// the engine emits on every run: per-phase latency and allocation
	// histograms, cache hit/miss/evict, batch fan-out, guard-limit
	// trips, contained faults and transform/validation outcomes. Where
	// Obs is one run's story, a registry accumulates across every run
	// of every analyzer sharing it, and is what the -debug-addr server
	// exposes. Nil keeps metrics off at no cost.
	Metrics *metrics.Registry
	// Flight, when non-nil, is the flight recorder: every analysis and
	// optimization outcome is captured as a condensed run record, with
	// runs that end in a contained fault held in a dedicated ring that
	// healthy traffic cannot evict. Nil keeps capture off at no cost.
	Flight *metrics.Flight
	// Limits bounds the resources each analysis may consume on hostile
	// input (source size, nesting depth, IR size, loop depth, per-phase
	// work). Zero fields take guard.Default ceilings; set a field to
	// guard.Unlimited to disable one check explicitly. A ceiling hit
	// surfaces as a *Error, never as a hang or a crash.
	Limits guard.Limits

	// Jobs bounds the batch worker pool of AnalyzeAll/AnalyzeBatch:
	// at most this many sources analyze concurrently (<= 0 means one
	// worker per available CPU). Single-source Analyze ignores it.
	Jobs int
	// Parallel is the intra-run fan-out width: when a single analysis
	// has enough array-reference pairs for the dependence tester, up to
	// this many workers share them. The classifier always runs as one
	// pass. 0 means one worker per available CPU; 1 disables the
	// fan-out. Results are bit-identical to the sequential pipeline
	// either way, so the field stays out of Fingerprint and parallel
	// and sequential runs share cache entries.
	// In batch mode the width is divided by the number of concurrent
	// batch workers (floor 1) unless set explicitly, so batch × intra-run
	// parallelism does not oversubscribe the machine.
	Parallel int
	// CacheEntries, when positive, gives the analyzer a private LRU
	// result cache of that capacity, keyed by source hash:
	// re-analyzing an unchanged source returns the cached
	// Program's artifacts without running the pipeline. Cached artifacts
	// are shared and immutable; Optimize works on a private clone of the
	// cached program (clone-on-transform), so optimizing a cache hit is
	// always safe.
	CacheEntries int
	// CacheDir, when non-empty, adds a persistent second cache tier: a
	// disk-backed content-addressed store of serialized analysis
	// artifacts (reports, structured report data, provenance chains)
	// layered under the in-memory cache. Entries are keyed by a
	// canonical structural hash of the parsed program — whitespace and
	// comment edits, and α-renamed duplicates, hit the same entry — and
	// survive process restarts: a warm store answers without running a
	// single analysis pass beyond parsing. Programs served from disk
	// carry rendered artifacts only (Program.Decoded reports this); the
	// SSA graph, interpreter and Optimize need a live analysis. The
	// directory is created if needed; an unusable directory surfaces as
	// an error from every entry point rather than silently analyzing
	// uncached.
	//
	// Writes land in the background: a cold run hands its analyzed
	// program to the analyzer's writer and returns, the writer renders
	// and encodes the entry and writes it with its alias, and the
	// analyzer's own reads see them at once. Call Analyzer.Flush before
	// the process exits and before another analyzer or process reads
	// the directory (AnalyzeWith, AnalyzeBatch, OptimizeWith and
	// OptimizeBatch flush before returning; bivd's drain flushes).
	// Until the write is on disk the writer reads the returned Program:
	// a caller that mutates an analyzed Program in place must analyze
	// without a CacheDir or call Flush first — as with CacheEntries,
	// whose hits share the Program.
	CacheDir string
	// CacheMaxBytes bounds the disk store's total size (<= 0 means
	// store.DefaultMaxBytes, 256 MiB); least-recently-used entries are
	// evicted past the budget, with recency shared across processes.
	CacheMaxBytes int64
	// CacheDirWriteOnly keeps CacheDir populated but never serves from
	// it: every run is a live analysis that still persists its artifact.
	// Set by consumers that need the SSA graph or transform pipeline
	// (so a decoded artifact could not serve them) but want their work
	// to warm the store for readers that can use it.
	CacheDirWriteOnly bool
	// BatchSteps, when positive, is a shared guard budget for each
	// AnalyzeAll/AnalyzeBatch call: every phase step of every source
	// in the batch draws from one pool of this size, on top of the
	// per-source Limits.
	BatchSteps int64

	// Passes names the transform pipeline Optimize runs, in order
	// (normalize, peel, interchange, distribute, strength, dce,
	// parmark — see xform.PassNames).
	// Empty means the default pipeline: every pass but normalize, in
	// canonical order (xform.DefaultPassNames). Unknown names
	// surface as an error from Optimize. Analyze ignores this field, and
	// it stays out of the cache fingerprint: analysis results are shared
	// between analyzers whatever their transform pipeline.
	Passes []string
	// SkipValidation disables the per-pass translation validation that
	// replays original vs transformed program through the interpreter
	// (ssa.Verify still runs after every pass). Meant for benchmarks.
	SkipValidation bool
}

// Error is the structured failure of one pipeline phase, produced by
// the engine's per-pass containment. Every error analysis returns is
// one of these: input diagnostics (scan/parse) carry a Pos,
// resource-ceiling hits wrap a *guard.LimitError, and contained panics
// — internal faults that would otherwise crash the caller — carry the
// panicking goroutine's Stack.
type Error = engine.Error

// Fingerprint identifies the option fields that change analysis
// results, for the on-disk store (shared by analyzers with different
// options) and the analysis server's fault-poisoning keys. Obs,
// Metrics, Flight, Limits, Jobs, Parallel and the cache fields are
// excluded: they change how the pipeline runs (or what it reports
// about itself), not what it computes (Limits are fingerprinted by
// the engine itself, since a ceiling changes which sources fail).
func (o Options) Fingerprint() string {
	return fmt.Sprintf("skipdeps:%t|iv:%s|dep:%s",
		o.SkipDependences, o.IV.Fingerprint(), o.Dependences.Fingerprint())
}

// passes composes the pipeline: the engine frontend, the classifier
// pass, and — unless skipped — the dependence pass. This, together
// with iv.Passes for the classifier-only entry point, is the only
// pipeline composition in the codebase.
func (o Options) passes() []engine.Pass {
	ps := append(engine.Frontend(), iv.ClassifyPass(o.IV))
	if !o.SkipDependences {
		ps = append(ps, depend.Pass(o.Dependences))
	}
	return ps
}

// Analyzer is a reusable analysis pipeline: one engine configuration,
// any number of sources, analyzed one at a time (Analyze), as a
// concurrent batch (AnalyzeAll), optimized (Optimize/OptimizeAll), or
// out of the result cache when one is configured. Analyzers are safe
// for concurrent use.
type Analyzer struct {
	eng *engine.Engine
	// passErr records an unresolvable Options.Passes name; surfaced by
	// the Optimize entry points (Analyze does not need the pipeline).
	passErr error
	// storeErr records a CacheDir that could not be opened; surfaced by
	// every entry point — a caller who asked for persistence should not
	// silently run without it.
	storeErr error
	// twin is the bare engine the differential rename check analyzes
	// α-renamed twins on; nil without a CacheDir.
	twin *engine.Engine
}

// NewAnalyzer builds an analyzer from opts.
func NewAnalyzer(opts Options) *Analyzer {
	names := opts.Passes
	if len(names) == 0 {
		names = xform.DefaultPassNames()
	}
	transforms, passErr := xform.Passes(names)
	cfg := engine.Config{
		Passes:         opts.passes(),
		Obs:            opts.Obs,
		Metrics:        opts.Metrics,
		Flight:         opts.Flight,
		Limits:         opts.Limits,
		Jobs:           opts.Jobs,
		Parallel:       opts.Parallel,
		CacheEntries:   opts.CacheEntries,
		Fingerprint:    opts.Fingerprint(),
		BatchSteps:     opts.BatchSteps,
		Transforms:     transforms,
		SkipValidation: opts.SkipValidation,
	}
	a := &Analyzer{passErr: passErr}
	if opts.CacheDir != "" {
		disk, err := store.Open(opts.CacheDir, opts.CacheMaxBytes)
		if err != nil {
			a.storeErr = fmt.Errorf("beyondiv: cache dir: %w", err)
		} else {
			// The differential rename check re-analyzes an α-renamed twin
			// of every program whose artifact is persisted. The twin runs
			// on a bare engine: same passes, ceilings and fan-out width,
			// but no caches, no store (no recursion), no telemetry, and
			// no fault injection — an injected fault belongs to the
			// original run, not to its shadow.
			lim := opts.Limits
			lim.Inject = nil
			a.twin = engine.New(engine.Config{Passes: opts.passes(), Limits: lim, Parallel: opts.Parallel})
			cfg.Store = disk
			cfg.StoreWriteOnly = opts.CacheDirWriteOnly
			cfg.BuildArtifact = func(st *engine.State, sum [32]byte, names []string) ([]byte, error) {
				return buildArtifact(st, sum, names, a.twin)
			}
		}
	}
	a.eng = engine.New(cfg)
	return a
}

// Flush waits until every disk-store write the analyzer has handed off
// is on disk. With a CacheDir, a cold run's artifact is built and
// written in the background; call Flush before the process exits,
// before another analyzer or process reads the directory, and before
// mutating a Program the analyzer returned. Without a CacheDir it
// returns at once.
func (a *Analyzer) Flush() { a.eng.Flush() }

// Analyze parses and analyzes one program.
func (a *Analyzer) Analyze(source string) (*Program, error) {
	if a.storeErr != nil {
		return nil, a.storeErr
	}
	st, err := a.eng.Analyze(source)
	if err != nil {
		return nil, err
	}
	return programOf(st), nil
}

// AnalyzeContext is Analyze under a caller's context: when ctx is
// cancelled or its deadline expires, the pipeline stops cooperatively
// (between passes, and inside step-metered phases via an amortized
// poll) and returns a *Error whose Phase names the pass the run was
// cancelled in and whose cause unwraps to context.Canceled or
// context.DeadlineExceeded. Cache hits are served even under a dead
// context — they cost nothing. This is the entry point a server uses
// to stop burning CPU for clients that timed out or disconnected.
func (a *Analyzer) AnalyzeContext(ctx context.Context, source string) (*Program, error) {
	if a.storeErr != nil {
		return nil, a.storeErr
	}
	st, err := a.eng.AnalyzeContext(ctx, source)
	if err != nil {
		return nil, err
	}
	return programOf(st), nil
}

// BatchResult is one source's outcome in a batch, in input order. Err,
// when non-nil, is the source's own *Error; other sources of the batch
// are unaffected by it.
type BatchResult struct {
	Index   int
	Source  string
	Program *Program
	Err     error
}

// AnalyzeAll analyzes the sources as a batch over the analyzer's
// worker pool (Options.Jobs) and returns one result per source, in
// input order. Results are byte-identical to sequential Analyze calls,
// whatever the worker count; per-worker telemetry merges back into
// Options.Obs when the batch completes.
func (a *Analyzer) AnalyzeAll(sources []string) []BatchResult {
	return a.AnalyzeAllContext(context.Background(), sources)
}

// AnalyzeAllContext is AnalyzeAll under a caller's context: a
// cancelled batch stops scheduling queued sources (they come back with
// batch-attributed cancellation errors instead of running), and
// in-flight sources stop cooperatively with the phase they were
// cancelled in. Every input source still gets exactly one result, in
// input order.
func (a *Analyzer) AnalyzeAllContext(ctx context.Context, sources []string) []BatchResult {
	if a.storeErr != nil {
		out := make([]BatchResult, len(sources))
		for i, src := range sources {
			out[i] = BatchResult{Index: i, Source: src, Err: a.storeErr}
		}
		return out
	}
	items := a.eng.AnalyzeAllContext(ctx, sources)
	out := make([]BatchResult, len(items))
	for i, it := range items {
		out[i] = BatchResult{Index: it.Index, Source: it.Source, Err: it.Err}
		if it.State != nil {
			out[i].Program = programOf(it.State)
		}
	}
	return out
}

// PassStat records one transform pass execution that changed the
// program during Optimize: the pass, its fixed-point round, and its
// rewrite count.
type PassStat = engine.PassStat

// OptimizeResult is the outcome of optimizing one source.
type OptimizeResult struct {
	// Program is the transformed program with every analysis recomputed
	// on it — classifications, dependences, SSA — so reports and Run
	// work on the optimized form.
	Program *Program
	// Original is the program as analyzed, before any transformation.
	// It may be a shared cache hit; Optimize never mutates it.
	Original *Program
	// Stats lists the pass executions that changed the program, in
	// execution order; Rounds and Rewrites aggregate them.
	Stats    []PassStat
	Rounds   int
	Rewrites int
	// Validations counts the interpreter replays that checked the
	// transformed program against the original.
	Validations int
	// ParallelLoops lists the effective labels of loops the parmark pass
	// proved parallel (sorted). Each survived a chunked-vs-sequential
	// execution check; interp.RunASTParallel honors the marks.
	ParallelLoops []string
}

// Optimize analyzes one source (through the cache, when configured) and
// runs the transform pipeline (Options.Passes) over a private clone,
// iterating to a fixed point with re-analysis and — unless
// Options.SkipValidation — interpreter translation validation after
// every mutating pass. The analyzed Program is never mutated, cached or
// not; the returned Program is the transformed clone.
func (a *Analyzer) Optimize(source string) (*OptimizeResult, error) {
	if a.passErr != nil {
		return nil, a.passErr
	}
	if a.storeErr != nil {
		return nil, a.storeErr
	}
	res, err := a.eng.Optimize(source)
	if err != nil {
		return nil, err
	}
	return optimizeResultOf(res), nil
}

// OptimizeContext is Optimize under a caller's context, with
// AnalyzeContext's cancellation contract extended over the transform
// and validation passes.
func (a *Analyzer) OptimizeContext(ctx context.Context, source string) (*OptimizeResult, error) {
	if a.passErr != nil {
		return nil, a.passErr
	}
	if a.storeErr != nil {
		return nil, a.storeErr
	}
	res, err := a.eng.OptimizeContext(ctx, source)
	if err != nil {
		return nil, err
	}
	return optimizeResultOf(res), nil
}

// OptimizeBatchResult is one source's outcome in an OptimizeAll batch.
type OptimizeBatchResult struct {
	Index  int
	Source string
	Result *OptimizeResult
	Err    error
}

// OptimizeAll optimizes the sources as a batch over the analyzer's
// worker pool, with the same ordering, isolation and telemetry
// guarantees as AnalyzeAll.
func (a *Analyzer) OptimizeAll(sources []string) []OptimizeBatchResult {
	out := make([]OptimizeBatchResult, len(sources))
	if err := a.passErr; err != nil || a.storeErr != nil {
		if err == nil {
			err = a.storeErr
		}
		for i, src := range sources {
			out[i] = OptimizeBatchResult{Index: i, Source: src, Err: err}
		}
		return out
	}
	for i, it := range a.eng.OptimizeAll(sources) {
		out[i] = OptimizeBatchResult{Index: it.Index, Source: it.Source, Err: it.Err}
		if it.Result != nil {
			out[i].Result = optimizeResultOf(it.Result)
		}
	}
	return out
}

func optimizeResultOf(res *engine.Optimized) *OptimizeResult {
	return &OptimizeResult{
		Program:       programOf(res.State),
		Original:      programOf(res.Original),
		Stats:         res.Stats,
		Rounds:        res.Rounds,
		Rewrites:      res.Rewrites,
		Validations:   res.Validations,
		ParallelLoops: res.ParallelLoops,
	}
}

// programOf wraps an analyzed engine state as the public Program.
func programOf(st *engine.State) *Program {
	if a := st.Decoded(); a != nil {
		return &Program{art: a}
	}
	return &Program{
		IV:    iv.AnalysisOf(st),
		Deps:  depend.ResultOf(st),
		SSA:   st.SSA,
		Loops: st.Forest,
	}
}

// Analyze parses and analyzes a program.
func Analyze(source string) (*Program, error) {
	return AnalyzeWith(source, Options{})
}

// AnalyzeWith parses and analyzes a program with options.
//
// On hostile or malformed input it never panics and never hangs: every
// phase runs under opts.Limits with panic containment, and any failure
// — syntax error, resource-ceiling hit, or contained internal fault —
// is returned as a *Error identifying the phase. With opts.CacheDir it
// returns once its store write is on disk.
func AnalyzeWith(source string, opts Options) (*Program, error) {
	a := NewAnalyzer(opts)
	defer a.Flush()
	return a.Analyze(source)
}

// AnalyzeBatch analyzes sources concurrently over opts.Jobs workers;
// it is NewAnalyzer(opts).AnalyzeAll(sources), flushed, for callers
// that do not need to keep the analyzer (and its cache) across batches.
func AnalyzeBatch(sources []string, opts Options) []BatchResult {
	a := NewAnalyzer(opts)
	defer a.Flush()
	return a.AnalyzeAll(sources)
}

// Optimize analyzes and optimizes a program with the default pipeline
// and full translation validation.
func Optimize(source string) (*OptimizeResult, error) {
	return OptimizeWith(source, Options{})
}

// OptimizeWith analyzes and optimizes a program with options; see
// (*Analyzer).Optimize for the pipeline and safety contract. With
// opts.CacheDir it returns once its store write is on disk.
func OptimizeWith(source string, opts Options) (*OptimizeResult, error) {
	a := NewAnalyzer(opts)
	defer a.Flush()
	return a.Optimize(source)
}

// OptimizeBatch optimizes sources concurrently over opts.Jobs workers;
// it is NewAnalyzer(opts).OptimizeAll(sources), flushed, for callers
// that do not need to keep the analyzer (and its cache) across batches.
func OptimizeBatch(sources []string, opts Options) []OptimizeBatchResult {
	a := NewAnalyzer(opts)
	defer a.Flush()
	return a.OptimizeAll(sources)
}

// ClassificationReport renders every loop's classifications, innermost
// first, in the paper's tuple notation.
func (p *Program) ClassificationReport() string {
	if p.art != nil {
		return p.art.Classification
	}
	return p.IV.Report()
}

// DependenceReport renders the dependences found (empty when analysis
// was skipped).
func (p *Program) DependenceReport() string {
	if p.art != nil {
		return p.art.Dependences
	}
	if p.Deps == nil {
		return ""
	}
	return p.Deps.Report()
}

// ReportData returns the structured per-loop report — what the JSON
// renderers consume — from the live analysis or, byte-identically, the
// decoded artifact.
func (p *Program) ReportData() []iv.LoopReport {
	if p.art != nil {
		var reps []iv.LoopReport
		if json.Unmarshal([]byte(p.art.ReportJSON), &reps) != nil {
			return nil
		}
		return reps
	}
	return p.IV.ReportData()
}

// Explain renders the provenance chain of every classified SSA version
// of the named variable ("j", or a specific version "j3"): which paper
// rule classified it, the strongly connected region it belongs to, and
// the feeding classifications, recursively. Empty when no loop defines
// such a variable.
func (p *Program) Explain(name string) string {
	if p.art != nil {
		text, _ := p.art.Explain(name)
		return text
	}
	return p.IV.ExplainVar(name)
}

// ExplainDep renders the provenance of one dependence edge: the paper
// rule behind the decision procedure, the dependence equation, and both
// subscripts' classification chains. The edge must come from this
// program's Deps.
func (p *Program) ExplainDep(d *depend.Dependence) string {
	if p.Deps == nil {
		return ""
	}
	return p.Deps.Explain(d)
}

// ExplainAllDeps renders ExplainDep for every dependence found, in
// report order.
func (p *Program) ExplainAllDeps() string {
	if p.art != nil {
		return p.art.ExplainDeps
	}
	if p.Deps == nil {
		return ""
	}
	return p.Deps.ExplainAll()
}

// Run executes the analyzed program with the given scalar parameters,
// returning final scalar values and the array-write trace. Useful for
// experimenting with the examples.
func (p *Program) Run(params map[string]int64) (*interp.Result, error) {
	if p.SSA == nil {
		return nil, errDecodedRun
	}
	return interp.RunSSA(p.SSA, interp.Config{Params: params})
}

// RunSteps is Run with an explicit execution-step ceiling, for driving
// untrusted programs: execution stops with an error once maxSteps
// instructions have run (0 means the interpreter's default budget).
func (p *Program) RunSteps(params map[string]int64, maxSteps int) (*interp.Result, error) {
	if p.SSA == nil {
		return nil, errDecodedRun
	}
	return interp.RunSSA(p.SSA, interp.Config{Params: params, MaxSteps: maxSteps})
}

// errDecodedRun rejects execution of a program served from the
// persistent cache: artifacts carry rendered reports, not the SSA graph
// the interpreter needs.
var errDecodedRun = errors.New("beyondiv: program was served from the persistent cache without live SSA; analyze with CacheDirWriteOnly (or no CacheDir) to execute it")
