package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"beyondiv"
	"beyondiv/internal/depend"
	"beyondiv/internal/engine"
	"beyondiv/internal/iv"
	obsmetrics "beyondiv/internal/obs/metrics"
	"beyondiv/internal/xform"
)

// The traced run times every layer from outside the program: each
// engine pass and transform pass of the facade's own pipeline is wrapped
// in a span, so no tracing code runs inside the system under test.

// span is one timed call. Times are offsets from the tracer's start.
type span struct {
	Name   string
	Op     int // operation (program or request) the span belongs to
	Parent int // index of the parent in the recorded spans; -1 if none
	Start  time.Duration
	End    time.Duration
	// Self is the duration minus the part covered by child spans; Allocs
	// is likewise the span's own heap allocation count.
	Self   time.Duration
	Allocs uint64
	N      int64 // rewrites, for transform-pass spans
}

type frame struct {
	name        string
	start       time.Duration
	allocs      uint64
	childDur    time.Duration
	childAllocs uint64
	idx         int // index in recorded spans; -1 past the cap
}

// tracer keeps spans in memory. It is not safe for concurrent use: spans
// open and close on the goroutine that drives the pipeline (the engine
// runs passes sequentially on its caller's goroutine).
type tracer struct {
	t0       time.Time
	allocs   allocCounter
	stack    []frame
	children []span // completed spans of the current operation
	spans    []span // recorded for the Chrome trace, up to limit
	limit    int
	dropped  int
	op       int
}

// newTracer records up to limit spans for the Chrome trace; aggregation
// sees every span regardless.
func newTracer(limit int) *tracer {
	return &tracer{t0: time.Now(), limit: limit, allocs: newAllocCounter()}
}

// allocCounter reads the process's cumulative heap allocation count
// through runtime/metrics, which, unlike runtime.ReadMemStats, does not
// stop the world.
type allocCounter []metrics.Sample

func newAllocCounter() allocCounter {
	return allocCounter{{Name: "/gc/heap/allocs:objects"}}
}

func (c allocCounter) read() uint64 {
	metrics.Read(c)
	return c[0].Value.Uint64()
}

func (t *tracer) begin(name string) {
	f := frame{name: name, idx: -1}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	if len(t.spans) < t.limit {
		f.idx = len(t.spans)
		t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent})
	} else {
		t.dropped++
	}
	f.allocs = t.allocs.read()
	f.start = time.Since(t.t0)
	t.stack = append(t.stack, f)
}

func (t *tracer) end(n int64) span {
	end := time.Since(t.t0)
	allocs := t.allocs.read()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur, a := end-f.start, allocs-f.allocs
	s := span{Name: f.name, Op: t.op, Parent: -1, Start: f.start, End: end,
		Self: dur - f.childDur, Allocs: a - f.childAllocs, N: n}
	if k := len(t.stack); k > 0 {
		t.stack[k-1].childDur += dur
		t.stack[k-1].childAllocs += a
	}
	if f.idx >= 0 {
		s.Parent = t.spans[f.idx].Parent
		t.spans[f.idx] = s
	}
	if len(t.stack) == 1 {
		t.children = append(t.children, s)
	}
	return s
}

// runOp runs fn as one operation: a top-level span sharing a fresh op
// id with every span opened inside it. It returns the operation's span
// and its completed child spans, valid until the next runOp.
func (t *tracer) runOp(name string, fn func()) (span, []span) {
	t.op++
	t.children = t.children[:0]
	t.begin(name)
	fn()
	return t.end(0), t.children
}

// facadePasses is the analysis pipeline beyondiv.NewAnalyzer builds for
// zero Options: the engine frontend, the classifier and the dependence
// tester. The facade-equivalence test keeps the two in step.
func facadePasses() []engine.Pass {
	return append(engine.Frontend(), iv.ClassifyPass(iv.Options{}), depend.Pass(depend.Options{}))
}

// tracedEngine builds an engine over the facade's pass lists with every
// Pass.Run and TransformPass.Run wrapped in a span of t.
func tracedEngine(t *tracer, parallel int, skipValidation bool, reg *obsmetrics.Registry) *engine.Engine {
	passes := facadePasses()
	for i := range passes {
		name, run := passes[i].Name, passes[i].Run
		passes[i].Run = func(st *engine.State) error {
			t.begin(name)
			defer t.end(0)
			return run(st)
		}
	}
	transforms := xform.DefaultPasses()
	for i := range transforms {
		name, run := "xform."+transforms[i].Name, transforms[i].Run
		transforms[i].Run = func(st *engine.State) (n int, err error) {
			t.begin(name)
			defer func() { t.end(int64(n)) }()
			return run(st)
		}
	}
	return engine.New(engine.Config{
		Passes:         passes,
		Transforms:     transforms,
		Fingerprint:    beyondiv.Options{}.Fingerprint(),
		Parallel:       parallel,
		SkipValidation: skipValidation,
		Metrics:        reg,
	})
}

// writeChrome writes the recorded spans as a Chrome trace (the JSON
// object format Perfetto and chrome://tracing open).
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	meta["spans_recorded"] = len(t.spans)
	meta["spans_dropped"] = t.dropped
	head, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[\n", head)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"parent":%d,"self_us":%.3f,"allocs":%d,"n":%d}}`,
			s.Name, us(s.Start), us(s.End-s.Start), s.Op, s.Parent, us(s.Self), s.Allocs, s.N)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
