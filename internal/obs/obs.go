// Package obs is the pipeline's zero-dependency telemetry layer:
// hierarchical phase spans (wall time and allocation counts), a
// deterministic counter registry, and a per-decision provenance log.
//
// A nil *Recorder is the valid "telemetry off" value: every method is a
// no-op on a nil receiver, so pipeline code threads the recorder
// unconditionally and pays only a nil check when telemetry is disabled.
//
//	rec := obs.New()
//	span := rec.Phase("iv")
//	...
//	span.End()
//	rec.Count("iv.scr.linear")
//	rec.Decide("j2", "§3.1 linear family", "(L1, 1, 1)")
//
// Sinks (sink.go) render the recording as a human-readable text report,
// JSON lines, or the Chrome trace-event format that chrome://tracing
// and Perfetto load directly.
package obs

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder accumulates spans, counters and decisions for one analysis
// run. Methods are safe for concurrent use and safe on a nil receiver.
type Recorder struct {
	mu        sync.Mutex
	epoch     time.Time
	now       func() time.Time
	mallocs   func() uint64
	roots     []*Span
	cur       *Span
	counters  map[string]int64
	decisions []Decision

	// tid is the Chrome-trace thread id stamped on every span this
	// recorder opens; forks draw distinct ids from the shared sequence,
	// so batch-worker spans render as parallel tracks instead of
	// interleaving on one row.
	tid    int
	tidSeq *atomic.Int64
}

// Span is one timed phase. Spans nest: a Phase call while another span
// is open records a child.
type Span struct {
	Name     string
	Start    time.Duration // offset from the recorder's epoch
	Dur      time.Duration
	Allocs   uint64 // heap objects allocated while the span was open
	TID      int    // trace track: 1 for the root recorder, per-fork otherwise
	Children []*Span

	rec         *Recorder
	parent      *Span
	startT      time.Time
	startAllocs uint64
}

// Decision is one provenance event: a named rule applied to a subject.
type Decision struct {
	Subject string // what was decided about, e.g. "j2" or "a[i2] -> a[i3]"
	Rule    string // the rule that fired, e.g. "§3.1 linear family"
	Detail  string // the outcome, e.g. "(L1, 1, 1)"
}

// New returns a live recorder using the real clock and allocation
// counter.
func New() *Recorder {
	return NewWithClock(time.Now, readMallocs)
}

// NewWithClock returns a recorder with injected time and allocation
// sources, for deterministic tests. Either may be nil to disable that
// measurement (timings and alloc counts then stay zero).
func NewWithClock(now func() time.Time, mallocs func() uint64) *Recorder {
	if now == nil {
		now = func() time.Time { return time.Time{} }
	}
	if mallocs == nil {
		mallocs = func() uint64 { return 0 }
	}
	seq := &atomic.Int64{}
	seq.Store(1)
	return &Recorder{
		epoch:    now(),
		now:      now,
		mallocs:  mallocs,
		counters: map[string]int64{},
		tid:      1,
		tidSeq:   seq,
	}
}

func readMallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Phase opens a span. The returned span must be closed with End; spans
// opened while it is live become its children. Returns nil (itself a
// valid no-op span) on a nil recorder.
func (r *Recorder) Phase(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Span{
		Name:        name,
		TID:         r.tid,
		rec:         r,
		parent:      r.cur,
		startT:      r.now(),
		startAllocs: r.mallocs(),
	}
	s.Start = s.startT.Sub(r.epoch)
	if r.cur == nil {
		r.roots = append(r.roots, s)
	} else {
		r.cur.Children = append(r.cur.Children, s)
	}
	r.cur = s
	return s
}

// End closes the span, recording duration and allocations. No-op on a
// nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Dur = r.now().Sub(s.startT)
	s.Allocs = r.mallocs() - s.startAllocs
	// Pop back to this span's parent even if a child was left open.
	r.cur = s.parent
}

// Fork returns a recorder that shares r's epoch, clock and allocation
// source but records into its own span tree, counter registry and
// provenance log. Batch workers record into forks concurrently — one
// recorder's span nesting is a single stack, so concurrent Phase calls
// on a shared recorder would interleave — and the parent merges each
// fork back with Absorb once the worker is done. Each fork draws a
// distinct Chrome-trace thread id from the shared sequence, so its
// spans render as their own parallel track after the merge. Fork of a
// nil recorder is nil (telemetry stays off).
func (r *Recorder) Fork() *Recorder {
	if r == nil {
		return nil
	}
	return r.fork(int(r.tidSeq.Add(1)))
}

// ForkRun is Fork on r's own trace track, for one run of a pipeline:
// the run records into the fork alone, so its span tree holds only its
// own spans however many runs share r, and Absorb merges it back when
// the run ends. Nil on a nil recorder.
func (r *Recorder) ForkRun() *Recorder {
	if r == nil {
		return nil
	}
	return r.fork(r.tid)
}

// fork returns an empty recorder on trace track tid. It reads only
// fields fixed at construction, so it takes no lock.
func (r *Recorder) fork(tid int) *Recorder {
	return &Recorder{
		epoch:    r.epoch,
		now:      r.now,
		mallocs:  r.mallocs,
		counters: map[string]int64{},
		tid:      tid,
		tidSeq:   r.tidSeq,
	}
}

// Absorb merges a quiescent forked recorder into r: the fork's root
// spans attach under r's currently open span (or become roots), its
// counters add into r's registry — iterated in sorted name order, so
// the merge performs the identical operation sequence on every run —
// and its provenance events append. The fork must not record
// concurrently with, or after, the merge. Absorbing forks in a fixed
// order therefore yields a byte-identical WriteText rendering however
// the forks themselves were scheduled. No-op when either recorder is
// nil.
func (r *Recorder) Absorb(fork *Recorder) {
	if r == nil || fork == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fork.mu.Lock()
	defer fork.mu.Unlock()
	if r.cur != nil {
		r.cur.Children = append(r.cur.Children, fork.roots...)
	} else {
		r.roots = append(r.roots, fork.roots...)
	}
	names := make([]string, 0, len(fork.counters))
	for k := range fork.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		r.counters[k] += fork.counters[k]
	}
	r.decisions = append(r.decisions, fork.decisions...)
	fork.roots, fork.decisions = nil, nil
	fork.counters = map[string]int64{}
}

// Spans returns the recorded root spans (children reachable through
// them). The tree must not be modified while recording continues.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.roots...)
}

// Count increments a counter by one.
func (r *Recorder) Count(name string) { r.Add(name, 1) }

// Add increments a counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns one counter's value (zero when never incremented).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of the registry.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// CounterNames returns the registered counter names, sorted.
func (r *Recorder) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CounterTotal sums every counter whose name starts with prefix.
func (r *Recorder) CounterTotal(prefix string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for k, v := range r.counters {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			total += v
		}
	}
	return total
}

// Decide appends one provenance event.
func (r *Recorder) Decide(subject, rule, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.decisions = append(r.decisions, Decision{Subject: subject, Rule: rule, Detail: detail})
	r.mu.Unlock()
}

// Decisions returns a copy of the provenance log, in event order.
func (r *Recorder) Decisions() []Decision {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Decision(nil), r.decisions...)
}
