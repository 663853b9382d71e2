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
//     deterministically and an optional shared guard step pool so the
//     batch as a whole has a work ceiling;
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
	"beyondiv/internal/validate"
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

	rec     *obs.Recorder
	lim     guard.Limits
	extra   map[string]any
	scratch *scratch.Arena
	art     *codec.Artifact
	par     int
	reg     *metrics.Registry
}

// Decoded returns the serialized artifact this state was reconstituted
// from, when the run was answered by the disk store instead of the
// pipeline. Such states carry the rendered results (reports, provenance)
// but no live object graphs: SSA, Forest, Consts and the contributed
// pass artifacts are nil. Fresh runs return nil here.
func (s *State) Decoded() *codec.Artifact { return s.art }

// Obs returns the recorder of the run this state belongs to; passes
// thread it into the stages they call. Nil when telemetry is off.
func (s *State) Obs() *obs.Recorder { return s.rec }

// Lim returns the run's normalized guard limits.
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

// Metrics returns the engine's process-lifetime registry (nil when no
// metrics backend is configured); the dependence pass publishes its
// engine.par.* fan-out counters into it, and transform passes their
// engine.xform.* counters.
func (s *State) Metrics() *metrics.Registry { return s.reg }

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
	// parse.FileGuarded); the engine then does not fire Name on entry.
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
	// for every run (batch workers record into forks merged back).
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
	// BatchSteps, when positive, is a shared guard budget for one
	// AnalyzeAll call: every phase step of every source draws from
	// this pool on top of the per-phase budgets.
	BatchSteps int64
	// Store, when non-nil, is the persistent second tier under the
	// in-memory cache: a disk-backed content-addressed store shared
	// across processes. Lookups try an alias record keyed by the exact
	// source first (zero passes on a hit), then — after parsing — the
	// structural entry keyed by the canonical AST hash, so whitespace
	// and comment edits and α-renamed duplicates still hit. Every entry
	// is decoded through the codec's checksum and version gate; a bad
	// blob is deleted and the source re-analyzed.
	Store *store.Store
	// BuildArtifact serializes a fresh successful state into a codec
	// blob for the disk store. The engine cannot build it itself — the
	// artifact includes texts rendered by the classifier and dependence
	// packages, which import engine — so the facade supplies the hook.
	// It receives the structural hash and name table the engine
	// computed after parse, so a write never hashes the program again.
	// A nil hook (or an error return) makes the store read-only.
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
	// Validate tunes the translation-validation grid; the zero value
	// uses the validate package defaults.
	Validate validate.Options
}

// Engine executes one configured pipeline over any number of sources.
// Engines are safe for concurrent use.
type Engine struct {
	cfg   Config
	cache *resultCache // nil unless CacheEntries > 0
	fp    string       // full disk-key prefix: caller fingerprint + limits + passes
	ins   *instr       // nil unless Metrics or Flight is configured
	par   int          // resolved Config.Parallel: 0 mapped to GOMAXPROCS

	// arenas recycles scratch arenas across runs and workers: each
	// analyze call checks one out for the duration of its pass list
	// (so a batch worker reuses a single arena across its whole source
	// stream), and parallel passes draw extra worker arenas from the
	// same pool via the run arena's Owner backpointer.
	arenas *scratch.Pool
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
func (e *Engine) analyze(source string, rec *obs.Recorder, lim guard.Limits, par int, needLive bool) (*State, error) {
	span := rec.Phase("analyze")
	defer span.End()
	var start time.Time
	if e.ins != nil {
		start = time.Now()
	}

	var key cacheKey
	if e.cache != nil {
		key = keyOf(source)
		if st := e.cache.get(key); st != nil && !(needLive && st.art != nil) {
			rec.Count("engine.cache.hit")
			if e.ins != nil {
				e.ins.count("engine.cache.hit")
				e.ins.record(source, start, time.Since(start), span, nil, true)
			}
			return st, nil
		}
		rec.Count("engine.cache.miss")
		if e.ins != nil {
			e.ins.count("engine.cache.miss")
		}
	}

	// Disk tier, fast path: an alias record for this exact source and
	// fingerprint resolves straight to an artifact — zero passes run.
	diskRead := e.cfg.Store != nil && !e.cfg.StoreWriteOnly && !needLive
	if diskRead {
		if art := e.aliasGet(source, rec); art != nil {
			st := &State{Source: source, rec: rec, lim: lim, extra: map[string]any{}, art: art}
			if e.cache != nil {
				e.cache.put(key, st)
			}
			if e.ins != nil {
				e.ins.record(source, start, time.Since(start), span, nil, true)
			}
			return st, nil
		}
	}

	ar := e.arenas.Get()
	st := &State{Source: source, rec: rec, lim: lim, extra: map[string]any{}, scratch: ar, par: par}
	if e.ins != nil {
		st.reg = e.ins.reg
	}
	// Chain cumulative time.Since(start) readings across pass
	// boundaries: each pass's duration is the delta to the previous
	// boundary. Since only reads the monotonic clock — measurably
	// cheaper than time.Now's wall+monotonic pair — so the metrics
	// tier costs one monotonic read per pass.
	var mark time.Duration
	if e.ins != nil {
		mark = time.Since(start)
	}
	var structSum [32]byte
	var structNames []string
	haveStruct := false
	for i, p := range e.cfg.Passes {
		err := runPass(lim, p, st)
		if err == nil {
			// Pass-boundary cancellation check: phases that sleep or do
			// unmetered work (no budget steps) still stop at the next
			// boundary, attributed to the pass that was running when the
			// context died. The in-phase poll lives in guard.Budget.
			if ce := lim.Cancelled(p.Name); ce != nil {
				err = &Error{Phase: ce.Phase, Err: ce}
			}
		}
		if e.ins != nil {
			d := time.Since(start)
			e.ins.pass(p.Name, d-mark)
			mark = d
		}
		if err != nil {
			// Scratch tables self-reset on acquisition, so the arena is
			// reusable even after a contained mid-pass fault.
			st.scratch = nil
			e.arenas.Put(ar)
			if e.ins != nil {
				e.ins.fail(err)
				// mark was read just after the failing pass — no extra
				// clock read needed.
				e.ins.record(source, start, mark, span, err, false)
			}
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
				if art := e.entryGet(structSum, structNames, rec, "engine.store.hit.struct"); art != nil {
					// Leave an alias so this exact source skips even the
					// parse from now on.
					e.cfg.Store.Put(e.aliasKey(source), codec.EncodeAlias(structSum, structNames))
					st.art = art
					st.scratch = nil
					e.arenas.Put(ar)
					if e.cache != nil {
						e.cache.put(key, st)
					}
					if e.ins != nil {
						e.ins.record(source, start, mark, span, nil, true)
					}
					return st, nil
				}
				rec.Count("engine.store.miss")
				if e.ins != nil {
					e.ins.count("engine.store.miss")
				}
			}
		}
	}
	// Detach before the state escapes: cached states are shared across
	// goroutines and must not alias a recycled arena.
	st.scratch = nil
	e.arenas.Put(ar)
	if haveStruct && e.cfg.BuildArtifact != nil {
		e.diskWrite(st, structSum, structNames, rec)
	}
	if e.cache != nil {
		if evicted := e.cache.put(key, st); evicted > 0 {
			rec.Add("engine.cache.evict", evicted)
			if e.ins != nil {
				e.ins.reg.Add("engine.cache.evict", evicted)
			}
		}
	}
	if e.ins != nil {
		// mark, read at the last pass boundary, doubles as the run's
		// duration; the cache put and disk write between there and here
		// are noise.
		e.ins.pass("analyze", mark)
		e.ins.allocs(span)
		e.ins.record(source, start, mark, span, nil, false)
	}
	return st, nil
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
