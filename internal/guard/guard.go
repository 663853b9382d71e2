// Package guard is the analysis pipeline's resource-limit and
// fault-containment layer.
//
// The facade (package beyondiv) analyzes untrusted loop programs; a
// hostile input must not be able to crash the process (panic), pin a
// CPU forever (unbounded recursion or folding loops), or exhaust
// memory (unbounded IR growth). guard provides:
//
//   - Limits: explicit ceilings on source size, nesting depth, IR/SSA
//     size, loop-nest depth, and per-phase work, threaded through every
//     pipeline stage as beyondiv.Options.Limits;
//   - Budget: a per-phase step countdown that fails closed by
//     panicking with a typed *LimitError, which the facade's phase
//     wrapper converts into a structured *beyondiv.Error;
//   - Inject: a test-only hook fired on entry to each guarded phase,
//     used by the fault-injection suite to prove that every phase
//     fails closed on both panics and limit hits.
//
// Limit hits deliberately travel as panics rather than error returns:
// the enforcement points sit at the bottom of deep recursions (parser
// descent, SCCP's worklist, the classifier's SCR walk) where threading
// an error through every frame would distort the algorithms the
// repository exists to present. The facade catches them at the phase
// boundary; nothing escapes Analyze.
package guard

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Limits bounds the resources one analysis may consume. The zero value
// of a field means "no limit at this enforcement point"; the facade
// normalizes a caller's zero fields to the Default ceilings first, so
// unlimited analysis must be requested explicitly with Unlimited.
type Limits struct {
	// MaxSourceBytes caps the length of the source text.
	MaxSourceBytes int
	// MaxNestDepth caps expression and statement nesting during
	// parsing (and thereby every later recursion over the AST), so a
	// thousand open parentheses become a diagnostic instead of a stack
	// overflow.
	MaxNestDepth int
	// MaxSSAValues caps IR values across cfgbuild and SSA construction
	// (φ insertion can be quadratic in the source size).
	MaxSSAValues int
	// MaxLoopDepth caps the loop-nest depth the classifier will walk.
	MaxLoopDepth int
	// MaxPhaseSteps is the per-phase work budget: SCCP worklist pops,
	// classifier node visits, dependence pair tests.
	MaxPhaseSteps int64

	// Pool, when non-nil, is a shared step budget drawn down by every
	// Budget built from these Limits in addition to its per-phase
	// countdown. ShareSteps sets it, in place of any pool already set,
	// so the workers of a phase that fans out share one ceiling. Nil
	// means no shared ceiling.
	Pool *Pool

	// Ctx, when non-nil, carries a caller's cancellation into the
	// pipeline: every Budget built from these Limits polls it (amortized
	// — one non-blocking check per cancelPollEvery steps), so a
	// timed-out or disconnected request stops burning CPU mid-phase
	// instead of running the analysis to completion. A cancellation
	// surfaces as a panicked *CancelError, contained by the engine into
	// a structured error naming the phase that was cancelled. Nil (or a
	// context that cannot be cancelled) costs nothing at enforcement
	// points. Like Inject, the field rides on Limits because the
	// enforcement points sit deep inside phases that only receive
	// Limits; it is per-run plumbing, not configuration, and stays out
	// of every fingerprint.
	Ctx context.Context

	// Inject, when non-nil, is called with the phase name on entry to
	// every guarded phase. It exists for fault-injection tests: the
	// hook may panic (exercising panic containment) or panic with a
	// *LimitError (exercising limit-hit handling). Production callers
	// leave it nil.
	Inject Inject
}

// Unlimited disables a limit explicitly when set on a Limits field
// passed to the facade (which maps it to zero = unchecked).
const Unlimited = -1

// Default returns the production ceilings. They are generous — an
// order of magnitude above anything the paper corpus needs — while
// keeping worst-case work on hostile input bounded to roughly a
// second.
func Default() Limits {
	return Limits{
		MaxSourceBytes: 1 << 20,  // 1 MiB of source
		MaxNestDepth:   4_096,    // parser recursion ceiling
		MaxSSAValues:   1 << 20,  // ~1M IR values
		MaxLoopDepth:   64,       // classifier loop-nest ceiling
		MaxPhaseSteps:  50 << 20, // ~52M units of per-phase work
	}
}

// Normalize fills zero fields from Default and maps negative
// (Unlimited) fields to zero, the "unchecked" value at enforcement
// points. The facade calls this once; enforcement sites then treat
// zero as off and positive as a ceiling.
func (l Limits) Normalize() Limits {
	d := Default()
	norm := func(v, def int) int {
		switch {
		case v < 0:
			return 0
		case v == 0:
			return def
		default:
			return v
		}
	}
	l.MaxSourceBytes = norm(l.MaxSourceBytes, d.MaxSourceBytes)
	l.MaxNestDepth = norm(l.MaxNestDepth, d.MaxNestDepth)
	l.MaxSSAValues = norm(l.MaxSSAValues, d.MaxSSAValues)
	l.MaxLoopDepth = norm(l.MaxLoopDepth, d.MaxLoopDepth)
	switch {
	case l.MaxPhaseSteps < 0:
		l.MaxPhaseSteps = 0
	case l.MaxPhaseSteps == 0:
		l.MaxPhaseSteps = d.MaxPhaseSteps
	}
	return l
}

// LimitError reports one resource ceiling hit. It is the panic payload
// of Budget.Step and Check; the facade converts it into a
// *beyondiv.Error carrying the phase.
type LimitError struct {
	Phase    string // pipeline phase that hit the ceiling
	Resource string // which ceiling, e.g. "nest depth", "phase steps"
	Limit    int64  // the configured ceiling
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("%s: %s limit exceeded (limit %d)", e.Phase, e.Resource, e.Limit)
}

// CancelError reports a run stopped by its caller's context — a
// deadline expiring or a client disconnecting mid-analysis. Like
// *LimitError it travels as a panic from the enforcement point (the
// amortized poll in Budget.Steps, or the engine's per-pass boundary
// check) and is contained by the engine into a structured error; Phase
// names the pipeline phase the run was cancelled in.
type CancelError struct {
	Phase string // pipeline phase that observed the cancellation
	Cause error  // context.Canceled or context.DeadlineExceeded
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("%s: analysis cancelled: %v", e.Phase, e.Cause)
}

// Unwrap exposes the context error, so errors.Is(err,
// context.DeadlineExceeded) distinguishes timeouts from disconnects
// through every wrapping layer.
func (e *CancelError) Unwrap() error { return e.Cause }

// Cancelled returns a *CancelError attributed to phase when the
// limits' context is done, nil otherwise. The engine calls it at pass
// boundaries; Budget.Steps polls the same context inside passes.
func (l Limits) Cancelled(phase string) *CancelError {
	if l.Ctx == nil {
		return nil
	}
	if err := l.Ctx.Err(); err != nil {
		return &CancelError{Phase: phase, Cause: err}
	}
	return nil
}

// cancelPollEvery is the amortization grain of the in-phase
// cancellation check: Budget.Steps consults the context's done channel
// once per this many steps, keeping the per-step cost of cancellation
// support to a counter decrement.
const cancelPollEvery = 1 << 10

// Check panics with a *LimitError when n exceeds the ceiling. A
// ceiling of zero or less is unchecked.
func Check(phase, resource string, n, limit int64) {
	if limit > 0 && n > limit {
		panic(&LimitError{Phase: phase, Resource: resource, Limit: limit})
	}
}

// Budget is a countdown of one phase's work. A nil Budget, or one with
// no ceiling and no shared pool, is unlimited. Budgets are not safe for
// concurrent use; each phase owns its own. The shared Pool, if any, is.
type Budget struct {
	phase string
	limit int64
	left  int64
	pool  *Pool

	// Cooperative cancellation: done is the context's done channel
	// (nil when the context cannot be cancelled), polled non-blocking
	// every cancelPollEvery steps via the pollIn countdown.
	ctx    context.Context
	done   <-chan struct{}
	pollIn int64
}

// Budget returns a step budget for the named phase from MaxPhaseSteps,
// also drawing down the shared Pool when one is set and polling the
// limits' context for cancellation when it has one.
func (l Limits) Budget(phase string) *Budget {
	b := &Budget{phase: phase, limit: l.MaxPhaseSteps, left: l.MaxPhaseSteps, pool: l.Pool}
	if l.Ctx != nil {
		if done := l.Ctx.Done(); done != nil {
			b.ctx, b.done, b.pollIn = l.Ctx, done, cancelPollEvery
		}
	}
	return b
}

// Step consumes one unit of work, panicking with a *LimitError once
// the budget is exhausted.
func (b *Budget) Step() {
	b.Steps(1)
}

// Steps consumes n units of work at once, panicking with a
// *CancelError when the budget's context has been cancelled (checked
// once per cancelPollEvery steps).
func (b *Budget) Steps(n int64) {
	if b == nil {
		return
	}
	if b.limit > 0 {
		b.left -= n
		if b.left < 0 {
			panic(&LimitError{Phase: b.phase, Resource: "phase steps", Limit: b.limit})
		}
	}
	b.pool.Take(b.phase, n)
	if b.done != nil {
		if b.pollIn -= n; b.pollIn <= 0 {
			b.pollIn = cancelPollEvery
			select {
			case <-b.done:
				panic(&CancelError{Phase: b.phase, Cause: b.ctx.Err()})
			default:
			}
		}
	}
}

// Ceiling returns the most steps the budget can ever grant: the lesser
// of its per-phase limit and its pool's total, or 0 when nothing bounds
// it. A phase checks work it would meter step by step against it up
// front, to answer conservatively instead of running into a limit it
// could never pass. Configured totals, unlike what is left, are the
// same at every parallel width, so the answer is too.
func (b *Budget) Ceiling() int64 {
	if b == nil {
		return 0
	}
	c := b.limit
	if p := b.pool; p != nil && (c <= 0 || p.limit < c) {
		c = p.limit
	}
	return c
}

// Pool is a concurrency-safe shared work budget: budgets built on
// separate workers from one Limits draw every step from its pool as
// well as their own countdowns (see Limits.ShareSteps). A nil Pool is
// unlimited.
type Pool struct {
	limit    int64
	left     atomic.Int64
	resource string // LimitError resource label; "" = "shared step pool"
}

// NewPool returns a pool of total steps. total <= 0 returns nil (no
// shared ceiling).
func NewPool(total int64) *Pool {
	if total <= 0 {
		return nil
	}
	p := &Pool{limit: total}
	p.left.Store(total)
	return p
}

// Take consumes n steps, panicking with a *LimitError attributed to
// phase once the pool is exhausted. Safe on a nil pool and for
// concurrent use.
func (p *Pool) Take(phase string, n int64) {
	if p == nil {
		return
	}
	if p.left.Add(-n) < 0 {
		res := p.resource
		if res == "" {
			res = "shared step pool"
		}
		panic(&LimitError{Phase: phase, Resource: res, Limit: p.limit})
	}
}

// ShareSteps converts the per-phase step countdown into a
// concurrency-safe shared ceiling: the returned Limits carry a pool of
// MaxPhaseSteps steps (with the "phase steps" resource label, so limit
// errors read the same as the sequential path's) and MaxPhaseSteps
// zeroed. Budgets built from the result on separate workers then
// enforce one phase-wide ceiling together instead of giving each
// worker the full budget.
func (l Limits) ShareSteps() Limits {
	if l.MaxPhaseSteps > 0 {
		l.Pool = NewPool(l.MaxPhaseSteps)
		l.Pool.resource = "phase steps"
		l.MaxPhaseSteps = 0
	}
	return l
}

// Remaining returns the steps left in the pool, never negative (an
// exhausted pool reads zero even though the losing Take drove the
// internal counter below it). Zero on a nil pool.
func (p *Pool) Remaining() int64 {
	if p == nil {
		return 0
	}
	if left := p.left.Load(); left > 0 {
		return left
	}
	return 0
}

// Limit returns the pool's configured total. Zero on a nil pool.
func (p *Pool) Limit() int64 {
	if p == nil {
		return 0
	}
	return p.limit
}

// Inject is the fault-injection hook type: called with each guarded
// phase's name on entry. See Limits.Inject.
type Inject func(phase string)

// Fire invokes the hook if set; safe on a nil hook, so phase code
// calls it unconditionally.
func (i Inject) Fire(phase string) {
	if i != nil {
		i(phase)
	}
}

// Fault is the panic payload of the PanicIn test helper; it carries
// the phase so containment tests can assert attribution even when the
// panic unwinds through an enclosing stage.
type Fault struct {
	Phase string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("injected fault in phase %s", f.Phase)
}

// PanicIn returns an inject hook that panics (with a *Fault) when the
// named phase is entered.
func PanicIn(phase string) Inject {
	return func(p string) {
		if p == phase {
			panic(&Fault{Phase: phase})
		}
	}
}

// LimitIn returns an inject hook that simulates a resource-ceiling hit
// (panics with a *LimitError) when the named phase is entered.
func LimitIn(phase string) Inject {
	return func(p string) {
		if p == phase {
			panic(&LimitError{Phase: phase, Resource: "injected", Limit: 0})
		}
	}
}
