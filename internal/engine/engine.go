// Package engine is the analysis pipeline's execution layer: an
// explicit pass architecture replacing the hard-coded call chains that
// used to live (twice, with different safety properties) in the
// beyondiv facade and iv.AnalyzeProgramWith.
//
// A Pass is one named phase producing a typed artifact into the shared
// State; an Engine executes a pass list under the guard limits, panic
// containment and telemetry threading that every entry point must
// share. The package owns exactly the stages that do not depend on the
// classifier — Frontend() is source → AST → CFG → SSA+dominators →
// loop forest → SCCP lattice — while the classification and dependence
// passes are contributed by their owning packages (iv.ClassifyPass,
// depend.Pass), which import engine; engine imports neither, so
// iv.AnalyzeProgramWith can itself run on the engine without an import
// cycle. Artifacts of contributed passes live in a keyed slot on State
// with typed accessors next to the pass definitions (iv.AnalysisOf,
// depend.ResultOf).
//
// On top of single-shot Analyze the engine adds what the old call
// chains could not express:
//
//   - AnalyzeAll: a bounded worker pool fanning a batch of sources out
//     concurrently, with per-worker forked obs recorders merged back
//     deterministically;
//   - a content-addressed result cache (cache.go): a private LRU keyed
//     by source hash, so repeated analysis of hot sources is a hash and
//     a map hit.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/codec"
	"beyondiv/internal/guard"
	"beyondiv/internal/ir"
	"beyondiv/internal/loops"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/parse"
	"beyondiv/internal/sccp"
	"beyondiv/internal/scratch"
	"beyondiv/internal/ssa"
	"beyondiv/internal/store"
	"beyondiv/internal/token"
)

// State is the artifact store one analysis run threads through its
// passes: each pass reads the slots of its predecessors and fills its
// own. The frontend slots are typed; passes contributed from outside
// the engine (classification, dependence) store under a string key via
// Put and are read back through typed accessors in their own packages.
// A State is immutable once Analyze returns it, so cached states are
// shared freely across goroutines.
type State struct {
	Source string
	File   *ast.File
	CFG    *cfgbuild.Result
	SSA    *ssa.Info
	Forest *loops.Forest
	Consts *sccp.Result

	sink    // the run's counter write path: State.Add, State.SetGauge
	lim     guard.Limits
	extra   map[string]any
	scratch *scratch.Arena
	art     *codec.Artifact
	par     int
}

// Decoded returns the serialized artifact this state was reconstituted
// from, when the run was answered by the disk store instead of the
// pipeline. Such states carry the rendered results (reports, provenance)
// but no live object graphs: SSA, Forest, Consts and the contributed
// pass artifacts are nil. Fresh runs return nil here.
func (s *State) Decoded() *codec.Artifact { return s.art }

// Obs returns the recorder of the run this state belongs to; passes
// thread it into the stages they call. Nil when telemetry is off, and
// on a state Analyze returned: the engine detaches the run (recorder,
// limits, arena) before a state is cached or returned.
func (s *State) Obs() *obs.Recorder { return s.rec }

// Lim returns the run's normalized guard limits while passes execute;
// the zero Limits on a state Analyze returned.
func (s *State) Lim() guard.Limits { return s.lim }

// Scratch returns the run's scratch arena, valid only while passes are
// executing: the engine detaches it before the state is cached or
// returned, so passes must never stash it in an artifact. Nil on entry
// paths that run without an engine-owned arena.
func (s *State) Scratch() *scratch.Arena { return s.scratch }

// Par returns the run's intra-run fan-out width: how many workers a
// pass may spread its independent work units over. 1 (or 0, on entry
// paths that never resolved it) means sequential. The engine resolves
// Config.Parallel once per run — dividing it down in batch mode so
// batch workers times intra-run workers never oversubscribes the
// machine.
func (s *State) Par() int { return s.par }

// Put stores a contributed pass's artifact under key.
func (s *State) Put(key string, artifact any) { s.extra[key] = artifact }

// Artifact returns the artifact stored under key, or nil.
func (s *State) Artifact(key string) any { return s.extra[key] }

// Pass is one named pipeline phase. Run reads its inputs from the
// state and stores its artifact back; an error return or a panic —
// a guard ceiling hit, an injected fault, or a genuine bug — is
// contained by the engine and surfaces as a *Error naming the pass.
type Pass struct {
	// Name is the phase name used for error attribution, telemetry
	// spans and the guard.Inject fault hook.
	Name string
	// OwnInject marks a pass that fires guard inject hooks itself at a
	// finer grain (the parse pass fires "scan" then "parse" inside
	// parse.FileScratch); the engine then does not fire Name on entry.
	OwnInject bool
	// Run executes the pass.
	Run func(st *State) error
}

// Frontend returns the classifier-independent pipeline prefix: parse →
// cfgbuild → ssa (verified) → loops (labels attached) → sccp. Every
// entry point composes its pipeline by appending to this one
// definition.
func Frontend() []Pass {
	return []Pass{
		{Name: "parse", OwnInject: true, Run: func(st *State) error {
			file, err := parse.FileScratch(st.Source, st.rec, st.lim, st.scratch)
			if err != nil {
				return err
			}
			st.File = file
			return nil
		}},
		{Name: "cfgbuild", Run: func(st *State) error {
			st.CFG = cfgbuild.BuildGuarded(st.File, st.rec, st.lim)
			return nil
		}},
		{Name: "ssa", Run: func(st *State) error {
			st.SSA = ssa.BuildScratch(st.CFG.Func, st.rec, st.lim, st.scratch)
			if errs := ssa.Verify(st.SSA); len(errs) != 0 {
				// Internal invariant; surface every violation.
				return errors.Join(errs...)
			}
			return nil
		}},
		{Name: "loops", Run: func(st *State) error {
			st.Forest = loops.AnalyzeWithObs(st.CFG.Func, st.SSA.Dom, st.rec)
			labels := map[*ir.Block]string{}
			for _, li := range st.CFG.Loops {
				labels[li.Header] = li.Label
			}
			st.Forest.AttachLabels(labels)
			return nil
		}},
		{Name: "sccp", Run: func(st *State) error {
			st.Consts = sccp.RunScratch(st.SSA, st.rec, st.lim, st.scratch)
			return nil
		}},
	}
}

// Config assembles an Engine.
type Config struct {
	// Passes is the pipeline, in execution order; typically
	// engine.Frontend() plus the contributed analysis passes.
	Passes []Pass
	// Obs, when non-nil, records phase spans, counters and provenance
	// for every run. Each Analyze or Optimize call records into a fork
	// absorbed when it returns, so concurrent runs keep their span
	// trees apart; batch workers record into forks merged back.
	Obs *obs.Recorder
	// Metrics, when non-nil, receives the process-lifetime aggregates:
	// per-phase latency and allocation histograms, cache
	// hit/miss/evict, batch fan-out, guard-limit trips, contained
	// faults, and transform/validation outcomes. Unlike Obs — one
	// run's span tree — a registry accumulates across every run of
	// every engine that shares it, and is what debugserv serves.
	Metrics *metrics.Registry
	// Flight, when non-nil, is the flight recorder: each Analyze or
	// Optimize outcome is captured as a condensed metrics.Run, with
	// runs ending in a contained fault kept in a dedicated ring so
	// healthy traffic cannot evict them.
	Flight *metrics.Flight
	// Limits bounds each source's analysis; normalized once at New, so
	// zero fields take guard.Default ceilings on every entry path.
	Limits guard.Limits
	// Jobs is AnalyzeAll's worker count; <= 0 means one worker per
	// available CPU, and the pool never exceeds the batch size.
	Jobs int
	// Parallel is the intra-run fan-out width: how many workers one
	// Analyze may spread its per-pair dependence tests over. 0 means
	// one worker per available CPU, 1 is the sequential path; either
	// way results are bit-identical.
	// In batch mode an auto (0) width is divided by the batch worker
	// count so the two tiers multiply to at most GOMAXPROCS; an
	// explicit width is honored as given. Parallel deliberately stays
	// out of the cache fingerprint.
	Parallel int
	// CacheEntries, when positive, gives the engine a private LRU of
	// that capacity, memoizing successful runs by source hash.
	CacheEntries int
	// Fingerprint distinguishes option sets that change analysis
	// results (ablation switches, dependence options); it is mixed
	// into every disk-store key together with the limits and pass
	// names.
	Fingerprint string
	// Store, when non-nil, is the persistent second tier under the
	// in-memory cache: a disk-backed content-addressed store shared
	// across processes. Lookups try an alias record keyed by the exact
	// source first (zero passes on a hit), then — after parsing — the
	// structural entry keyed by the canonical AST hash, so whitespace
	// and comment edits and α-renamed duplicates still hit. Every entry
	// is decoded through the codec's checksum and version gate; a bad
	// blob is deleted and the source re-analyzed. Writes land in the
	// background, in order: a cold run hands its returned State to the
	// engine's writer, which builds the blob (BuildArtifact) and writes
	// it, and Flush waits for them to reach the disk. Reads go to the
	// disk alone, so a write is visible once it lands; until then a
	// repeat of the source misses and is analyzed afresh, to the same
	// result. A caller must not mutate a returned State before Flush.
	Store *store.Store
	// BuildArtifact serializes a fresh successful state into a codec
	// blob for the disk store. The engine cannot build it itself — the
	// artifact includes texts rendered by the classifier and dependence
	// packages, which import engine — so the facade supplies the hook.
	// It receives the structural hash and name table the engine
	// computed after parse, so a write never hashes the program again.
	// It runs once per write, after the run has returned the state:
	// on the writer goroutine, or on the cold run's own when
	// maxUnbuilt writes already wait for the writer. The state is
	// detached from its run by then (no recorder, limits or arena) and
	// may be read concurrently by other goroutines, so the hook only
	// reads it. A nil hook makes the store read-only; an error return
	// drops the write, and a panic drops it too and counts
	// engine.store.fault.
	BuildArtifact func(st *State, structSum [32]byte, names []string) ([]byte, error)
	// StoreWriteOnly disables disk *reads* while keeping writes: set by
	// callers whose consumers need the live object graphs (SSA dumps,
	// DOT output, the optimizer) and cannot accept a decoded state.
	// Their fresh runs still warm the store for everyone else.
	StoreWriteOnly bool
	// Transforms is the mutating pipeline Optimize runs after analysis,
	// in execution order (AST-tier passes should precede SSA-tier ones;
	// see Tier). Empty makes Optimize equivalent to Analyze. Transform
	// results are never cached, and pass names deliberately stay out of
	// the cache fingerprint, so an Optimize engine shares analysis cache
	// entries with a plain Analyze engine.
	Transforms []TransformPass
	// SkipValidation disables the per-pass interpreter translation
	// validation (ssa.Verify still runs after every rebuild). Meant for
	// benchmarks; correctness-sensitive callers should leave it off.
	SkipValidation bool
}

// Engine executes one configured pipeline over any number of sources.
// Engines are safe for concurrent use.
type Engine struct {
	cfg   Config
	cache *resultCache // nil unless CacheEntries > 0
	fp    string       // full disk-key prefix: caller fingerprint + limits + passes
	ins   *instr       // nil unless Metrics or Flight is configured
	par   int          // resolved Config.Parallel: 0 mapped to GOMAXPROCS

	// arenas recycles scratch arenas across runs: each analyze call
	// checks one out for the duration of its pass list (so a batch
	// worker reuses a single arena across its whole source stream).
	arenas *scratch.Pool
	// w writes the disk store in the background; nil without a Store.
	w *writer
}

// New builds an engine. The configured limits are normalized here —
// engine entry points never run unguarded.
func New(cfg Config) *Engine {
	cfg.Limits = cfg.Limits.Normalize()
	e := &Engine{cfg: cfg, ins: newInstr(&cfg), arenas: scratch.NewPool()}
	e.par = cfg.Parallel
	if e.par <= 0 {
		e.par = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries > 0 {
		e.cache = newResultCache(cfg.CacheEntries)
	}
	if cfg.Store != nil {
		e.w = newWriter(cfg.Store, sink{rec: cfg.Obs, reg: cfg.Metrics})
	}
	l := cfg.Limits
	// Every variable-length component is length-prefixed so no crafted
	// fingerprint or pass name can make two distinct configurations
	// serialize to the same key prefix (e.g. a fingerprint ending in
	// "|limits:..." used to be indistinguishable from the limits field).
	e.fp = fmt.Sprintf("%d:%s|limits:%d,%d,%d,%d,%d|passes:%d", len(cfg.Fingerprint), cfg.Fingerprint,
		l.MaxSourceBytes, l.MaxNestDepth, l.MaxSSAValues, l.MaxLoopDepth, l.MaxPhaseSteps, len(cfg.Passes))
	for _, p := range cfg.Passes {
		e.fp += fmt.Sprintf("|%d:%s", len(p.Name), p.Name)
	}
	return e
}

// Analyze runs the pipeline on one source. On hostile or malformed
// input it never panics and never hangs: every pass runs under the
// engine's limits with panic containment, and any failure — syntax
// error, resource-ceiling hit, or contained internal fault — returns
// as a *Error identifying the pass.
func (e *Engine) Analyze(source string) (*State, error) {
	return e.analyze(source, e.cfg.Obs, e.cfg.Limits, e.par, false)
}

// AnalyzeContext is Analyze under a caller's context: when ctx is
// cancelled or its deadline expires, the run stops cooperatively —
// between passes at the pass boundary, and inside the step-metered
// phases via the guard budget's amortized poll — and returns a *Error
// wrapping a *guard.CancelError that names the phase the run was
// cancelled in. A nil or Background context behaves like Analyze.
func (e *Engine) AnalyzeContext(ctx context.Context, source string) (*State, error) {
	lim := e.cfg.Limits
	lim.Ctx = ctx
	return e.analyze(source, e.cfg.Obs, lim, e.par, false)
}

// analyze is Analyze against an explicit recorder and limits (batch
// workers substitute their forked recorder, the shared-pool limits,
// and a divided-down intra-run width par). needLive marks callers that
// go on to mutate or inspect the object graphs (the optimizer): they
// must not be answered with a decoded disk artifact or a decoded
// in-memory entry.
func (e *Engine) analyze(source string, rec *obs.Recorder, lim guard.Limits, par int, needLive bool) (_ *State, err error) {
	r := e.open(rec, "analyze")
	r.source = source
	defer r.close()
	defer func() { r.analyzed(err) }()

	var key cacheKey
	if e.cache != nil {
		key = keyOf(source)
		if st := e.cache.get(key); st != nil && !(needLive && st.art != nil) {
			r.Add("engine.cache.hit", 1)
			r.cached = true
			return st, nil
		}
		r.Add("engine.cache.miss", 1)
	}

	// Disk tier, fast path: an alias record for this exact source and
	// fingerprint resolves straight to an artifact — zero passes run.
	diskRead := e.cfg.Store != nil && !e.cfg.StoreWriteOnly && !needLive
	if diskRead {
		if art := e.aliasGet(source, r.sink); art != nil {
			st := &State{Source: source, extra: map[string]any{}, art: art}
			e.remember(r.sink, key, st)
			r.cached = true
			return st, nil
		}
	}

	ar := e.arenas.Get()
	st := &State{Source: source, sink: r.sink, lim: lim, extra: map[string]any{}, scratch: ar, par: par}
	if r.in != nil {
		r.mark = time.Since(r.start) // the first pass's clock starts after the lookups
	}
	var structSum [32]byte
	var structNames []string
	haveStruct := false
	for i, p := range e.cfg.Passes {
		err = runPass(lim, p, st)
		if err == nil {
			// Pass-boundary cancellation check: phases that sleep or do
			// unmetered work (no budget steps) still stop at the next
			// boundary, attributed to the pass that was running when the
			// context died. The in-phase poll lives in guard.Budget.
			if ce := lim.Cancelled(p.Name); ce != nil {
				err = &Error{Phase: ce.Phase, Err: ce}
			}
		}
		if r.in != nil { // chained clock: one monotonic reading per pass boundary
			d := time.Since(r.start)
			r.in.pass(p.Name, d-r.mark)
			r.mark = d
		}
		if err != nil {
			// Scratch tables self-reset on acquisition, so the arena is
			// reusable even after a contained mid-pass fault.
			st.scratch = nil
			e.arenas.Put(ar)
			return nil, err
		}
		// Disk tier, structural path: once the source is parsed its
		// canonical AST hash is known; an entry written for a
		// formatting- or α-variant of this program answers the run at
		// the cost of the parse alone. The hash is computed whenever a
		// store is configured — the write path needs it too.
		if i == 0 && p.Name == "parse" && e.cfg.Store != nil && st.File != nil {
			structSum, structNames = codec.StructuralHash(st.File)
			haveStruct = true
			if diskRead {
				if art := e.entryGet(structSum, structNames, r.sink, "engine.store.hit.struct"); art != nil {
					// Leave an alias so this exact source skips even the
					// parse from now on.
					e.w.handOff(&write{aliasKey: e.aliasKey(source), alias: codec.EncodeAlias(structSum, structNames)})
					st.art = art
					e.arenas.Put(ar)
					e.remember(r.sink, key, st)
					r.cached = true
					return st, nil
				}
				r.Add("engine.store.miss", 1)
			}
		}
	}
	// The arena goes back before the state escapes: cached states are
	// shared across goroutines and must not alias a recycled arena.
	st.scratch = nil
	e.arenas.Put(ar)
	e.remember(r.sink, key, st)
	if haveStruct && e.cfg.BuildArtifact != nil {
		e.diskWrite(r.sink, st, structSum, structNames)
	}
	return st, nil
}

// remember detaches a successful run's state from the run — its
// recorder, its limits (request context, inject hook, step pool) and
// its arena — and puts it in the memory cache, when there is one,
// counting the entries that makes it evict. A later hit shares the
// state with requests that are not this run.
func (e *Engine) remember(s sink, key cacheKey, st *State) {
	st.sink, st.lim, st.scratch = sink{}, guard.Limits{}, nil
	if e.cache == nil {
		return
	}
	if n := e.cache.put(key, st); n > 0 {
		s.Add("engine.cache.evict", n)
	}
}

// runPass runs one pass with fault containment: any panic — a guard
// ceiling hit, an injected test fault, or a genuine bug — is converted
// into a *Error instead of escaping the engine, and an error return is
// wrapped the same way. Telemetry spans opened inside the pass have
// deferred End calls, which run during panic unwinding, so a contained
// failure still leaves spans and counters recorded up to the fault.
func runPass(lim guard.Limits, p Pass, st *State) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = contained(p.Name, r)
		}
	}()
	if !p.OwnInject {
		lim.Inject.Fire(p.Name)
	}
	if ferr := p.Run(st); ferr != nil {
		return wrapError(p.Name, ferr)
	}
	return nil
}

// Error is the structured failure of one pipeline pass. Every error
// the engine returns is one of these: input diagnostics (scan/parse)
// carry a Pos, resource-ceiling hits wrap a *guard.LimitError, and
// contained panics — internal faults that would otherwise crash the
// caller — carry the panicking goroutine's Stack.
type Error struct {
	Phase string    // pipeline phase that failed: "scan", "parse", ..., "depend"
	Pos   token.Pos // source position, when the failure is an input diagnostic
	Err   error     // underlying cause
	Stack []byte    // stack trace of a contained panic; nil otherwise
}

// Error renders "phase: cause"; input diagnostics keep their
// "line:col: message" form inside the cause.
func (e *Error) Error() string { return fmt.Sprintf("%s: %v", e.Phase, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// contained converts a recovered panic value into a *Error. Typed
// guard payloads carry their own phase attribution (a limit hit deep
// in a shared helper may belong to an earlier-named phase than the one
// whose wrapper caught it).
func contained(phase string, p any) *Error {
	switch v := p.(type) {
	case *guard.LimitError:
		if v.Phase != "" {
			phase = v.Phase
		}
		return &Error{Phase: phase, Err: v}
	case *guard.CancelError:
		if v.Phase != "" {
			phase = v.Phase
		}
		return &Error{Phase: phase, Err: v}
	case *guard.Fault:
		if v.Phase != "" {
			phase = v.Phase
		}
		return &Error{Phase: phase, Err: v, Stack: debug.Stack()}
	case error:
		return &Error{Phase: phase, Err: v, Stack: debug.Stack()}
	default:
		return &Error{Phase: phase, Err: fmt.Errorf("panic: %v", v), Stack: debug.Stack()}
	}
}

// wrapError wraps a pass's error return, lifting structured details:
// the phase a *guard.LimitError names wins over the wrapper's label,
// and the first positioned diagnostic contributes Pos.
func wrapError(phase string, err error) *Error {
	var le *guard.LimitError
	if errors.As(err, &le) && le.Phase != "" {
		phase = le.Phase
	}
	var ce *guard.CancelError
	if errors.As(err, &ce) && ce.Phase != "" {
		phase = ce.Phase
	}
	e := &Error{Phase: phase, Err: err}
	var pe *token.PosError
	if errors.As(err, &pe) {
		e.Pos = pe.Pos
	}
	return e
}
