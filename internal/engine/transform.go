// Transformation layer: mutating passes as first-class engine citizens.
//
// Analysis passes fill artifact slots; transform passes rewrite the
// program those artifacts describe. The engine keeps the two honest
// with clone-on-transform: Optimize never mutates the analyzed state it
// starts from (which may be cache-shared across goroutines) — the first
// mutating pass of each tier works on a private deep copy (ast.CloneFile
// for the AST, ssa.Info.Clone — dense-ID-preserving — for the SSA
// program), and every artifact consumed by later passes is recomputed on
// that copy. Each pass declares its tier, which is its invalidation
// contract, and whether it reads the analyses at all (NoAnalyses). A
// rewrite rebuilds at once only what validation reads: the CFG and SSA
// after an AST rewrite, dominators (and ssa.Verify) after an SSA
// rewrite. The loop, constant and contributed analysis passes rerun
// before the next pass that reads them, and before Optimize returns.
// Rounds iterate to a fixed point so rewrites compose (a
// strength-reduced φ is re-classified as linear and can seed the next
// round's rewrites at an outer loop).
//
// Every mutating pass runs under the same regime as analysis passes —
// guard limits, panic containment, obs spans and counters — plus two
// checks analysis never needed: ssa.Verify after every rebuild, and
// translation validation (internal/validate) replaying original vs
// transformed program through the interpreter over a grid of inputs.
// Each check compiles the rewritten program (interp.Compile) and runs
// under the same containment. At a run width (State.Par) of 2 or more
// the checks run in pass order on one checker goroutine beside the
// pipeline; Optimize joins it before returning, on every path, and the
// first failing check is the error, as in serial order.
package engine

import (
	"context"
	"errors"
	"slices"
	"time"

	"beyondiv/internal/ast"
	"beyondiv/internal/cfgbuild"
	"beyondiv/internal/guard"
	"beyondiv/internal/interp"
	"beyondiv/internal/ir"
	"beyondiv/internal/obs"
	"beyondiv/internal/scratch"
	"beyondiv/internal/ssa"
	"beyondiv/internal/validate"
)

// Tier says which program representation a TransformPass rewrites, and
// thereby what the engine must rebuild once it reports changes.
type Tier uint8

const (
	// TierAST passes rewrite st.File (normalization, peeling); the
	// engine rebuilds CFG and SSA at once and every analysis after them
	// before they are next read (see TransformPass.NoAnalyses). List AST
	// passes before SSA passes: an AST rebuild regenerates the IR, so
	// SSA rewrites earlier in the same round would be discarded (the
	// fixed-point rounds redo them, at redundant cost).
	TierAST Tier = iota
	// TierSSA passes rewrite the SSA graph of st.SSA.Func in place
	// (strength reduction, dead-code elimination); the engine refreshes
	// dominators and reverifies SSA at once, and reruns the loop,
	// constant and contributed analysis passes before they are next
	// read.
	TierSSA
	// TierMark passes rewrite nothing: they attach annotation artifacts
	// to the state (State.Put) derived from the analyses — the parallel
	// loop marking. Their invalidation contract is empty: no clone, no
	// re-analysis, no per-pass translation validation (there is no new
	// program to validate). Their rewrite count is the annotation delta
	// against the previous round, so the fixed point still converges;
	// annotation-dependent validation (sequential vs parallel execution)
	// runs once, after the fixed point, against the final marks. List
	// them last: marks describe the final program of the round.
	TierMark
)

// TransformPass is one mutating pipeline phase. Run rewrites the
// working program and reports how many rewrites it performed; zero
// means "nothing to do" and skips re-analysis, which is also how the
// fixed point is detected. By the time Run executes, the state it sees
// is a private clone of the analyzed original with analyses recomputed
// on the clone (unless the pass declares NoAnalyses) — a pass may
// freely mutate its tier's representation and must never see (or
// touch) a cache-shared artifact. Errors and panics
// are contained exactly like analysis passes, surfacing as *Error with
// phase "xform.<name>".
type TransformPass struct {
	Name string
	Tier Tier
	Run  func(st *State) (rewrites int, err error)
	// Reorders declares that the pass may legally permute the global
	// store trace (loop interchange, loop distribution) while preserving
	// per-cell write order. Once such a pass has changed the program,
	// translation validation compares traces in validate.PerCellOrder
	// for the rest of the run — exact global order is no longer an
	// invariant the pipeline maintains against the original.
	Reorders bool
	// NoAnalyses declares that Run reads none of the analysis artifacts
	// — Forest, Consts, nor a contributed pass's (the classification,
	// the dependences) — only its tier's representation: File, or SSA.
	// The engine then lets it run while those artifacts still describe
	// an earlier program. The zero value declares that Run reads them,
	// so a pass that declares nothing sees analyses of the program it
	// rewrites.
	NoAnalyses bool
}

// ParMarks is the parallel-loop annotation artifact: effective loop
// label (cfgbuild's numbering, see cfgbuild.ForLabels) → provably
// parallel. It is contributed by an annotation pass (xform's parmark)
// under ParMarksKey and consumed by the parallel execution backend and
// the surface layers' reports.
type ParMarks map[string]bool

// ParMarksKey is the State artifact slot ParMarks lives in.
const ParMarksKey = "parmarks"

// ParMarksOf returns the state's parallel-loop marks, or nil.
func ParMarksOf(st *State) ParMarks {
	m, _ := st.Artifact(ParMarksKey).(ParMarks)
	return m
}

// parValidateWorkers is the chunk fan-out width the post-fixed-point
// parallel-execution validation runs at. Fixed above 1 so the chunked
// merge is exercised even on single-CPU hosts (goroutines still
// interleave, and the -race corpus runs catch unsynchronized access).
const parValidateWorkers = 4

// MaxRounds caps Optimize's fixed-point iteration over the transform
// pipeline. Convergence normally ends iteration well before the cap (a
// round in which no pass rewrites anything).
const MaxRounds = 10

// PassStat records one transform pass execution that changed the
// program: which pass, in which fixed-point round, and how many
// rewrites it made.
type PassStat struct {
	Name     string
	Round    int
	Rewrites int
}

// Optimized is the outcome of one Optimize run.
type Optimized struct {
	// Original is the analyzed input state — possibly a shared cache
	// hit, never mutated by the optimizer.
	Original *State
	// State is the transformed program with all analyses recomputed on
	// it; it aliases Original when no pass changed anything.
	State *State
	// Stats lists the pass executions that changed the program, in
	// execution order.
	Stats []PassStat
	// Rounds is the number of fixed-point rounds executed; Rewrites the
	// total across passes.
	Rounds   int
	Rewrites int
	// Validations counts the interp translation-validation replays that
	// guarded this result (0 when validation is disabled or nothing
	// changed).
	Validations int
	// ParallelLoops lists the effective labels of loops the annotation
	// pass proved parallel (sorted; nil when the pipeline has no parmark
	// or nothing was provable). Unless validation was disabled, the
	// parallel execution of exactly these loops was checked
	// byte-identical to sequential execution over the grid.
	ParallelLoops []string
}

// Optimize analyzes one source (through the cache, when configured) and
// runs the engine's transform pipeline over a private clone, iterating
// passes to a fixed point; after a change, each pass sees analyses of
// the program it rewrites unless it declares NoAnalyses. It has
// the same safety contract as Analyze — guarded, contained, never a
// hang — plus the transform-layer guarantees: the analyzed state stays
// immutable, ssa.Verify holds after every pass, and unless validation
// is disabled, original and transformed programs are interp-equivalent
// over the validation grid. Passes after a rewrite whose check fails
// beside the pipeline (width 2 or more) may already have run, and
// their xform.<name>.rewrites and engine.opt.rounds counts stand; the
// error is the failed check's, as in serial order.
func (e *Engine) Optimize(source string) (*Optimized, error) {
	return e.optimize(source, e.cfg.Obs, e.cfg.Limits, e.par)
}

// OptimizeContext is Optimize under a caller's context, with
// AnalyzeContext's cancellation contract extended over the transform
// pipeline: a cancelled run stops at the next pass boundary or
// in-phase budget poll and returns a *Error naming the phase (analysis
// pass, "xform.<name>", "reanalyze" or "validate") it was cancelled
// in.
func (e *Engine) OptimizeContext(ctx context.Context, source string) (*Optimized, error) {
	lim := e.cfg.Limits
	lim.Ctx = ctx
	return e.optimize(source, e.cfg.Obs, lim, e.par)
}

func (e *Engine) optimize(source string, rec *obs.Recorder, lim guard.Limits, par int) (_ *Optimized, err error) {
	r := e.open(rec, "optimize")
	r.source = source
	defer r.close()

	orig, err := e.analyze(source, r.rec, lim, par, true)
	if err != nil {
		return nil, err // the analysis published its own failure
	}
	if len(e.cfg.Transforms) == 0 {
		return &Optimized{Original: orig, State: orig, Rounds: 0}, nil
	}
	defer func() { r.optimized(err) }()

	ar := e.arenas.Get()
	extra := make(map[string]any, len(orig.extra))
	for k, v := range orig.extra {
		extra[k] = v
	}
	st := &State{
		Source:  source,
		File:    orig.File,
		CFG:     orig.CFG,
		SSA:     orig.SSA,
		Forest:  orig.Forest,
		Consts:  orig.Consts,
		sink:    r.sink,
		lim:     lim,
		extra:   extra,
		scratch: ar,
		par:     par,
	}
	out, err := (&optimizer{e: e, orig: orig, st: st}).run()
	// Detach before the state escapes; the arena is reusable even after
	// a contained fault (tables self-reset on acquisition).
	st.scratch = nil
	e.arenas.Put(ar)
	return out, err
}

// optimizer threads one Optimize run's clone-on-transform bookkeeping.
type optimizer struct {
	e    *Engine
	orig *State
	st   *State

	astPrivate bool // st.File no longer aliases orig's
	irPrivate  bool // st.SSA (and CFG/analyses) no longer alias orig's
	annotated  bool // a TierMark pass attached marks (st.extra differs from orig's)
	reordered  bool // a Reorders pass fired; trace validation is per-cell now
	// stale marks the analyses downstream of SSA construction (loops,
	// sccp, the contributed passes) as describing an earlier program
	// than st.SSA; refresh reruns them.
	stale bool

	// truth is the original's validation outcomes, run once per grid
	// point for the whole Optimize, when checks run inline; the checker
	// owns its own.
	truth *validate.Baseline
	// chk runs the checks beside the pipeline at a width of 2 or more;
	// nil until the first check, and again once joined.
	chk *checker

	stats       []PassStat
	rewrites    int
	validations int
}

// run is Optimize's transform stage. It joins the checker on every
// path, a panic unwinding included, and a check's failure wins over
// any error the pipeline raised after that check's pass: every check
// precedes it in serial order.
func (r *optimizer) run() (res *Optimized, err error) {
	defer func() {
		if cerr := r.join(); cerr != nil {
			res, err = nil, cerr
		}
	}()
	rounds, err := r.rounds()
	if err != nil {
		return nil, err
	}
	out := r.st
	if !r.irPrivate && !r.annotated {
		// Nothing rewrote the IR or annotated the state; hand back the
		// analyzed original so callers see pointer-identical artifacts on
		// a no-op pipeline. (An annotated state still aliases the
		// original's File/SSA — the marks live in its artifact map.)
		out = r.orig
	} else if err := r.refresh(); err != nil {
		return nil, err // the returned state describes the returned program
	}
	// The marks' check comes last in check order.
	if err := r.join(); err != nil {
		return nil, err
	}
	parallel, err := r.validateMarks(out)
	if err != nil {
		return nil, err
	}
	return &Optimized{
		Original:      r.orig,
		State:         out,
		Stats:         r.stats,
		Rounds:        rounds,
		Rewrites:      r.rewrites,
		Validations:   r.validations,
		ParallelLoops: parallel,
	}, nil
}

// rounds iterates the transform pipeline to its fixed point and
// returns the number of rounds run. A run whose last round still
// rewrote stops at MaxRounds short of the fixed point, and counts
// engine.opt.maxrounds.
func (r *optimizer) rounds() (int, error) {
	for round := 1; round <= MaxRounds; round++ {
		r.st.Add("engine.opt.rounds", 1)
		changed := false
		for _, p := range r.e.cfg.Transforms {
			// Boundary cancellation check between transform passes; the
			// passes' own budget charges cover cancellation mid-rewrite.
			if ce := r.st.lim.Cancelled("xform." + p.Name); ce != nil {
				return round, &Error{Phase: ce.Phase, Err: ce}
			}
			if err := r.prepare(p); err != nil {
				return round, err
			}
			n, err := r.transform(p)
			if err != nil {
				return round, err
			}
			if r.st.live() {
				r.st.Add("xform."+p.Name+".rewrites", int64(n))
			}
			if n == 0 {
				continue
			}
			changed = true
			r.stats = append(r.stats, PassStat{Name: p.Name, Round: round, Rewrites: n})
			r.rewrites += n
			if p.Tier == TierMark {
				// Annotation-only contract: the program did not change,
				// so there is nothing to re-analyze or validate; the
				// marks themselves are validated after the fixed point.
				r.annotated = true
				continue
			}
			if p.Reorders {
				r.reordered = true
			}
			if err := r.reanalyze(p.Tier); err != nil {
				return round, err
			}
			if err := r.validate(p.Name); err != nil {
				return round, err
			}
		}
		if !changed {
			return round, nil
		}
	}
	r.st.Add("engine.opt.maxrounds", 1)
	return MaxRounds, nil
}

// validateMarks checks the final parallel-loop marks by executing the
// transformed program's marked loops chunked across goroutines and
// comparing the outcome byte-for-byte against the sequential
// interpreter over the validation grid. Returns the sorted marked
// labels.
func (r *optimizer) validateMarks(out *State) ([]string, error) {
	marks := ParMarksOf(out)
	if len(marks) == 0 {
		return nil, nil
	}
	labels := make([]string, 0, len(marks))
	for lbl := range marks {
		labels = append(labels, lbl)
	}
	slices.Sort(labels)
	if r.e.cfg.SkipValidation {
		return labels, nil
	}
	span := r.e.phase(r.st.rec, "validate")
	err := contain("parmark", r.st.lim.Inject, func() error {
		return validate.Parallel(out.SSA, out.File, marks, parValidateWorkers, validate.Options{})
	})
	span.End()
	return labels, r.checked("parmark", err)
}

// prepare readies the working state for pass p. It gives the state a
// private copy of the representation p is about to mutate
// (clone-on-transform): the AST copy is a plain deep clone, the SSA
// copy the dense-ID-preserving ir clone, after which every analysis
// artifact is stale, since each points into the original's values and
// loops. Then, unless p declares NoAnalyses, it reruns the stale
// analyses.
func (r *optimizer) prepare(p TransformPass) error {
	switch p.Tier {
	case TierMark:
		// Annotation passes touch only the state's artifact map, which
		// optimize already copied; nothing to clone.
	case TierAST:
		if !r.astPrivate {
			r.st.File = ast.CloneFile(r.st.File)
			r.astPrivate = true
		}
	case TierSSA:
		if !r.irPrivate {
			cs := scratch.Get[ir.CloneScratch](&r.st.scratch.IR)
			r.st.SSA = r.st.SSA.Clone(cs)
			loopsInfo := make([]cfgbuild.LoopInfo, len(r.st.CFG.Loops))
			for i, li := range r.st.CFG.Loops {
				loopsInfo[i] = li
				loopsInfo[i].Header = cs.BlockByID(li.Header.ID)
			}
			r.st.CFG = &cfgbuild.Result{Func: r.st.SSA.Func, Loops: loopsInfo}
			r.irPrivate = true
			r.stale = true
			r.st.Add("engine.opt.clones", 1)
		}
	}
	if p.NoAnalyses {
		return nil
	}
	return r.refresh()
}

// reanalyze rebuilds at once what a tier's rewrite invalidated and
// validation reads: after an AST rewrite the CFG and the SSA program
// (verified by the ssa pass), after an SSA rewrite the dominators,
// with SSA reverification. The analyses downstream of SSA construction
// go stale; refresh reruns them before the next pass that reads them,
// or before Optimize returns.
func (r *optimizer) reanalyze(t Tier) error {
	defer r.e.phase(r.st.rec, "reanalyze").End()
	r.stale = true
	if t == TierSSA {
		r.st.SSA.RefreshDom()
		if errs := ssa.Verify(r.st.SSA); len(errs) != 0 {
			return &Error{Phase: "reanalyze", Err: errors.Join(errs...)}
		}
		return nil
	}
	// The AST rebuild regenerates the IR from the rewritten File;
	// whatever SSA state existed is replaced wholesale, so the working
	// IR is private from here on.
	r.irPrivate = true
	return r.runPasses(func(name string) bool { return name == "cfgbuild" || name == "ssa" })
}

// refresh reruns the stale analyses — every engine pass after SSA
// construction, the contributed classification and dependence passes
// included — so the state describes the current program again. Until
// then their artifacts stay in the state: the dependence pass reuses
// the verdicts of the Result it replaces (DESIGN §17), however many
// rewrites old.
func (r *optimizer) refresh() error {
	if !r.stale {
		return nil
	}
	defer r.e.phase(r.st.rec, "reanalyze").End()
	if err := r.runPasses(func(name string) bool { return name != "parse" && name != "cfgbuild" && name != "ssa" }); err != nil {
		return err
	}
	r.stale = false
	return nil
}

// runPasses reruns the engine's analysis passes that keep selects, in
// pipeline order, with the pass boundary's cancellation check.
func (r *optimizer) runPasses(keep func(name string) bool) error {
	for _, p := range r.e.cfg.Passes {
		if !keep(p.Name) {
			continue
		}
		if err := runPass(r.st.lim, p, r.st); err != nil {
			return err
		}
		if ce := r.st.lim.Cancelled(p.Name); ce != nil {
			return &Error{Phase: ce.Phase, Err: ce}
		}
	}
	return nil
}

// validate replays original vs working program through the interpreter
// over the configured grid (translation validation). Phase attribution
// names the pass whose rewrite is being checked. The working program
// is compiled here, since later passes rewrite it; at a run width of 2
// or more the compiled check goes to the checker and the pipeline goes
// on, otherwise it runs inline.
func (r *optimizer) validate(pass string) error {
	if r.e.cfg.SkipValidation {
		return nil
	}
	order := validate.ExactOrder
	if r.reordered {
		order = validate.PerCellOrder
	}
	if r.st.Par() >= 2 {
		var prog *interp.Program
		err := contain(pass, r.st.lim.Inject, func() error {
			prog = interp.Compile(r.st.SSA)
			return nil
		})
		if r.chk == nil {
			r.chk = r.startChecker()
		}
		r.chk.jobs <- check{pass: pass, prog: prog, order: order, err: err}
		return nil
	}
	span := r.e.phase(r.st.rec, "validate")
	err := contain(pass, r.st.lim.Inject, func() error {
		prog := interp.Compile(r.st.SSA)
		if r.truth == nil {
			r.truth = validate.NewBaseline(r.orig.SSA, validate.Options{})
		}
		return r.truth.Check(prog, order)
	})
	span.End()
	return r.checked(pass, err)
}

// contain runs one of pass's checks under the passes' fault
// containment: inject fires "xform.<pass>.validate" on entry, and a
// panic returns as a *Error of that phase, with its stack. The
// pipeline's side of a check fires the run's hook; the checker's side
// passes nil, so the hook fires once per check, on the goroutine that
// runs the passes.
func contain(pass string, inject guard.Inject, check func() error) (err error) {
	phase := "xform." + pass + ".validate"
	defer func() {
		if v := recover(); v != nil {
			err = contained(phase, v)
		}
	}()
	inject.Fire(phase)
	return check()
}

// checked counts one translation validation of pass's rewrite and its
// outcome, xform.<pass>.validate.pass or .fail, and turns a failure
// into the run's error: a contained panic's *Error as it is, any other
// under the phase "xform.<pass>.validate".
func (r *optimizer) checked(pass string, err error) error {
	r.validations++
	r.st.Add("engine.opt.validations", 1)
	if r.st.live() {
		outcome := ".validate.pass"
		if err != nil {
			outcome = ".validate.fail"
		}
		r.st.Add("xform."+pass+outcome, 1)
	}
	if err == nil {
		return nil
	}
	if ee, ok := err.(*Error); ok {
		return ee
	}
	return &Error{Phase: "xform." + pass + ".validate", Err: err}
}

// checker runs one Optimize's translation validations on a goroutine of
// its own, in pass order, while the pipeline goes on: it owns the
// original's Baseline, and the pipeline hands it each working program
// compiled (interp.Program reads no IR, so later rewrites cannot reach
// it). It stops checking at the first failure, as serial order would.
// It never writes the run's recorder or counters: its spans go to a
// fork of the recorder, and join publishes the checks in check order.
type checker struct {
	jobs chan check
	done chan struct{}
	rec  *obs.Recorder // a fork of the run's recorder, or nil
	out  []check       // the checks run, up to the first failure
}

// check is one queued translation validation and, once run, its
// outcome: err, and the latency when the engine times phases.
type check struct {
	pass  string
	prog  *interp.Program
	order validate.TraceOrder
	err   error // a failure, or the compile's contained panic
	dur   time.Duration
}

// startChecker starts the checker goroutine. Its queue holds every
// check the run can make (one per rewriting pass per round), so the
// pipeline never waits to hand one over.
func (r *optimizer) startChecker() *checker {
	c := &checker{
		jobs: make(chan check, MaxRounds*len(r.e.cfg.Transforms)),
		done: make(chan struct{}),
		rec:  r.st.rec.Fork(),
	}
	orig, timed := r.orig.SSA, r.e.ins != nil
	go func() {
		defer close(c.done)
		var truth *validate.Baseline
		for j := range c.jobs {
			if len(c.out) > 0 && c.out[len(c.out)-1].err != nil {
				continue // after a failure, serial order checks nothing more
			}
			var start time.Time
			if timed {
				start = time.Now()
			}
			span := c.rec.Phase("validate")
			if j.err == nil {
				j.err = contain(j.pass, nil, func() error {
					if truth == nil {
						truth = validate.NewBaseline(orig, validate.Options{})
					}
					return truth.Check(j.prog, j.order)
				})
			}
			span.End()
			if timed {
				j.dur = time.Since(start)
			}
			j.prog = nil
			c.out = append(c.out, j)
		}
	}()
	return c
}

// join waits for the checker to finish the queued checks and publishes
// them in check order — engine.opt.validations, the pass's
// .validate.pass or .fail, the phase.validate latency, and the spans of
// its recorder fork — returning the first failure. A no-op when no
// checker runs.
func (r *optimizer) join() error {
	c := r.chk
	if c == nil {
		return nil
	}
	r.chk = nil
	close(c.jobs)
	<-c.done
	r.st.rec.Absorb(c.rec)
	for _, j := range c.out {
		if in := r.e.ins; in != nil {
			in.pass("validate", j.dur)
		}
		if err := r.checked(j.pass, j.err); err != nil {
			return err
		}
	}
	return nil
}

// transform executes one mutating pass with the analysis passes'
// fault containment, under the phase name "xform.<name>".
func (r *optimizer) transform(p TransformPass) (n int, err error) {
	st := r.st
	phase := "xform." + p.Name
	defer r.e.phase(st.rec, phase).End()
	defer func() {
		if v := recover(); v != nil {
			n, err = 0, contained(phase, v)
		}
	}()
	st.lim.Inject.Fire(phase)
	n, ferr := p.Run(st)
	if ferr != nil {
		return 0, wrapError(phase, ferr)
	}
	return n, nil
}

// OptItem is one source's outcome in an OptimizeAll batch.
type OptItem struct {
	Index  int
	Source string
	Result *Optimized
	Err    error
}

// OptimizeAll is Optimize over the batch worker pool: the same bounded
// fan-out, forked-recorder merging and per-source failure isolation as
// AnalyzeAll, applied to the full analyze-transform-validate pipeline.
func (e *Engine) OptimizeAll(sources []string) []OptItem {
	return e.OptimizeAllContext(context.Background(), sources)
}

// OptimizeAllContext is OptimizeAll under a caller's context, with
// AnalyzeAllContext's batch-cancellation contract: a cancelled batch
// stops scheduling queued sources, in-flight sources stop
// cooperatively, and unscheduled sources carry batch-attributed
// cancellation errors.
func (e *Engine) OptimizeAllContext(ctx context.Context, sources []string) []OptItem {
	par := e.batchPar(len(sources))
	items := make([]OptItem, len(sources))
	e.fanOut(ctx, "optimize-all", len(sources), func(i int, wrec *obs.Recorder, lim guard.Limits) {
		res, err := e.optimize(sources[i], wrec, lim, par)
		items[i] = OptItem{Index: i, Source: sources[i], Result: res, Err: err}
	}, func(i int, ce *guard.CancelError) {
		items[i] = OptItem{Index: i, Source: sources[i], Err: &Error{Phase: ce.Phase, Err: ce}}
	})
	return items
}
