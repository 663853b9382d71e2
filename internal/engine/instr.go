package engine

import (
	"errors"
	"time"

	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/metrics"
)

// sink is the one write path of an engine counter: Add writes it to the
// run's recorder (-stats, -trace, -jsonl) and the engine's registry
// (/metrics) together. Both are nil-safe, so the zero sink is telemetry
// off. State embeds its run's sink: contributed passes publish through
// State.Add. Gauges are registry-only: the recorder has none.
type sink struct {
	rec *obs.Recorder
	reg *metrics.Registry
}

// Add adds n to the named counter in the run's recorder and in the
// engine's registry.
func (s sink) Add(name string, n int64) {
	s.rec.Add(name, n)
	s.reg.Add(name, n)
}

// SetGauge sets the named registry gauge.
func (s sink) SetGauge(name string, v int64) { s.reg.SetGauge(name, v) }

// live reports whether the run has a sink at all: a counter name built
// at run time is built only then.
func (s sink) live() bool { return s.rec != nil || s.reg != nil }

// fail attributes a failed run: every failure counts engine.err, a
// resource-ceiling hit guard.trip.<phase>.<resource>, a cancellation
// engine.cancel.<phase> and a contained panic engine.fault.<phase>.
func (s sink) fail(err error) {
	if err == nil || !s.live() {
		return
	}
	s.Add("engine.err", 1)
	var ee *Error
	if !errors.As(err, &ee) {
		return
	}
	var le *guard.LimitError
	var ce *guard.CancelError
	switch {
	case errors.As(ee.Err, &le):
		s.Add("guard.trip."+metrics.Sanitize(ee.Phase)+"."+metrics.Sanitize(le.Resource), 1)
	case errors.As(ee.Err, &ce):
		s.Add("engine.cancel."+metrics.Sanitize(ee.Phase), 1)
	case ee.Stack != nil:
		s.Add("engine.fault."+metrics.Sanitize(ee.Phase), 1)
	}
}

// instr holds what only the engine's process-lifetime backends record:
// the registry's per-phase latency and allocation histograms and the
// flight recorder of recent runs. It is nil when neither Config.Metrics
// nor Config.Flight is set.
type instr struct {
	reg *metrics.Registry
	fl  *metrics.Flight
	// phase and alloc map a phase name to its latency and allocation
	// histograms, created once at engine construction and read-only
	// after: the per-pass cost is a map hit, not a name concatenation
	// plus a registry lookup.
	phase map[string]*metrics.Histogram
	alloc map[string]*metrics.Histogram
}

// newInstr returns nil unless at least one backend is configured.
func newInstr(cfg *Config) *instr {
	if cfg.Metrics == nil && cfg.Flight == nil {
		return nil
	}
	in := &instr{
		reg:   cfg.Metrics,
		fl:    cfg.Flight,
		phase: map[string]*metrics.Histogram{},
		alloc: map[string]*metrics.Histogram{},
	}
	if in.reg != nil {
		names := []string{"analyze", "optimize", "reanalyze", "validate"}
		for _, p := range cfg.Passes {
			names = append(names, p.Name)
		}
		for _, p := range cfg.Transforms {
			names = append(names, "xform."+p.Name)
		}
		for _, n := range names {
			in.phase[n] = in.reg.Hist("phase." + n)
			in.alloc[n] = in.reg.Hist("phase." + n + ".allocs")
		}
	}
	return in
}

// pass records one completed phase into its latency histogram,
// "phase.<name>" in nanoseconds: newInstr created one for every phase
// the engine times (none without a registry, and Observe is nil-safe).
// Failed passes record too — a phase that burned 50ms before hitting
// its ceiling belongs in the tail.
func (in *instr) pass(name string, d time.Duration) { in.phase[name].Observe(d.Nanoseconds()) }

// allocs feeds the per-phase allocation histograms from a finished
// analyze span's children, whose memstats reads the recorder already
// paid for (a nil span: no recorder, nothing to feed). The span is in
// the run's own fork, which nothing else records into.
func (in *instr) allocs(span *obs.Span) {
	if in.reg == nil || span == nil {
		return
	}
	for _, c := range span.Children {
		if c.Allocs == 0 {
			continue
		}
		if h, ok := in.alloc[c.Name]; ok {
			h.Observe(int64(c.Allocs))
			continue
		}
		in.reg.Observe("phase."+c.Name+".allocs", int64(c.Allocs))
	}
}

// run is an Analyze or Optimize call, or one optimizer phase, on both
// telemetry tiers: its span, its counters' sink, and a latency clock
// read only when a registry or flight recorder is configured.
type run struct {
	sink
	in     *instr
	name   string
	span   *obs.Span
	parent *obs.Recorder // the caller's recorder a call's fork goes back into
	start  time.Time
	mark   time.Duration // the chained pass clock: age at the last pass boundary
	source string        // for the flight record
	cached bool          // answered by the memory cache or the disk store
}

// open starts an Analyze or Optimize call named name. The call records
// into a fork of rec that nothing else writes, so runs sharing rec keep
// their span trees apart; close absorbs the fork into rec.
func (e *Engine) open(rec *obs.Recorder, name string) run {
	r := e.phase(rec.ForkRun(), name)
	r.parent = rec
	return r
}

// phase starts an optimizer phase named name on its run's recorder:
// its span, and its clock when a registry or flight recorder will read
// it.
func (e *Engine) phase(rec *obs.Recorder, name string) run {
	r := run{sink: sink{rec: rec, reg: e.cfg.Metrics}, in: e.ins, name: name, span: rec.Phase(name)}
	if r.in != nil {
		r.start = time.Now()
	}
	return r
}

// close ends a call opened by open: its span, then its fork, absorbed
// into the caller's recorder.
func (r run) close() {
	r.span.End()
	r.parent.Absorb(r.rec)
}

// End closes an optimizer phase: its span, and its latency as
// phase.<name>, observed whether or not the phase failed.
func (r run) End() {
	r.span.End()
	if r.in != nil {
		r.in.pass(r.name, time.Since(r.start))
	}
}

// analyzed publishes a finished analysis from its entry point's one
// deferred site: a failure is attributed on every sink; a fresh
// success observes phase.analyze and its passes' allocations; every
// outcome is flight-recorded. Its duration is the last pass boundary
// when passes ran: the cache put and disk write after it are not the
// analysis.
func (r run) analyzed(err error) {
	r.fail(err)
	if r.in == nil {
		return
	}
	d := r.mark
	if d == 0 {
		d = time.Since(r.start)
	}
	if err == nil && !r.cached {
		r.in.pass(r.name, d)
		r.in.allocs(r.span)
	}
	r.record(d, err)
}

// optimized publishes a finished transform stage from its entry
// point's one deferred site: phase.optimize whether or not it failed,
// and for a failure its attribution and a flight record (a success's
// analysis recorded the source already).
func (r run) optimized(err error) {
	r.fail(err)
	if r.in == nil {
		return
	}
	d := time.Since(r.start)
	r.in.pass(r.name, d)
	if err != nil {
		r.record(d, err)
	}
}

// record captures the run in the flight recorder: its duration, a
// source preview, the condensed span tree of the run's fork when a
// recorder was on, and a failure's error, phase and (for a contained
// panic) stack.
func (r run) record(d time.Duration, err error) {
	if r.in.fl == nil {
		return
	}
	fr := metrics.Run{Start: r.start, DurUS: d.Microseconds(), Source: r.source, Bytes: len(r.source), Cached: r.cached}
	if r.span != nil {
		fr.Spans = metrics.Condense(r.span.Children, 4)
	}
	if err != nil {
		fr.Err = err.Error()
		var ee *Error
		if errors.As(err, &ee) {
			fr.Phase, fr.Fault, fr.Stack = ee.Phase, ee.Stack != nil, string(ee.Stack)
		}
	}
	r.in.fl.Record(fr)
}
