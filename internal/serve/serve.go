// Package serve is the analysis service layer behind cmd/bivd: HTTP/
// JSON endpoints over a shared analyzer, designed robustness-first for
// a long-running daemon taking untrusted traffic.
//
//	POST /v1/analyze   {"source": "...", "timeout_ms": 500}
//	POST /v1/optimize  {"source": "..."}
//	POST /v1/explain   {"source": "...", "var": "j"} or {"source": ..., "deps": true}
//	POST /v1/batch     {"sources": ["...", ...]}
//
// Four mechanisms keep an overloaded or attacked process answering:
//
//   - Admission control: a semaphore of worker slots with a bounded
//     wait queue in front. When both are full the request is shed at
//     once with 429 + Retry-After — the server degrades by refusing
//     cheaply, never by queueing unboundedly.
//   - Per-request deadlines: every request runs under a context
//     (default or body-requested timeout, capped), threaded through
//     the engine's cooperative cancellation, so a timed-out or
//     disconnected client stops burning CPU mid-phase; the 503 body
//     names the phase the run was cancelled in.
//   - Fault isolation: the engine's per-pass panic containment maps to
//     structured JSON — 422 for input/limit errors, 500 for contained
//     internal faults — always with phase attribution, and a poison
//     cache remembers recently-faulting source hashes so a replayed
//     crasher is rejected from the cache instead of re-panicking the
//     pipeline.
//   - Graceful drain: Drain stops admission (healthz flips to
//     draining, waiters get 503), waits for in-flight requests up to a
//     deadline, and reports whether the drain was clean.
//
// The handlers mount on the debugserv mux (Register + Health), so one
// port serves the API, /metrics, /healthz, /lastruns and pprof.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"beyondiv"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/obs/metrics"
)

// Config assembles a Server.
type Config struct {
	// Options configure the shared analyzer: cache, guard limits,
	// batch worker count (Jobs bounds the fan-out *inside* one /v1/batch
	// request; MaxInFlight bounds requests — total engine concurrency
	// is at most MaxInFlight × Jobs). Options.Parallel is the intra-run
	// width of every request's dependence sweep; requests cannot change
	// it, and a daemon already running MaxInFlight requests
	// concurrently usually wants it at 1. Metrics/Flight set here are
	// also used for the server's own serve.* counters and gauges.
	Options beyondiv.Options
	// MaxInFlight is the number of requests analyzed concurrently
	// (worker slots); <= 0 means 4.
	MaxInFlight int
	// MaxQueue bounds the wait queue in front of the worker slots;
	// <= 0 means 4 × MaxInFlight. A request arriving to a full queue is
	// shed with 429.
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the body names
	// none; <= 0 means 10s.
	DefaultTimeout time.Duration
	// MaxTimeout caps body-requested timeouts; <= 0 means 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes caps the request body; <= 0 means 4 MiB.
	MaxBodyBytes int64
	// PoisonCapacity is the poison cache's entry count (recently
	// faulting source hashes rejected without re-analysis); 0 means
	// 128, negative disables the cache.
	PoisonCapacity int
	// AllowInject, when true, honors the request body's "inject" field:
	// the named pipeline phase panics with a contained fault for that
	// request. It exists for the chaos load harness and must stay off
	// outside tests (bivd arms it with -inject).
	AllowInject bool
}

// Server is the analysis service: one shared analyzer, admission
// control, per-request deadlines, poison cache and drain state. Safe
// for concurrent use; create with New.
type Server struct {
	cfg    Config
	an     *beyondiv.Analyzer
	reg    *metrics.Registry
	adm    *admission
	poison *poison
	// optFP is the analyzer options' fingerprint, part of every poison
	// key: faults are remembered per endpoint and option set, never
	// shared across them.
	optFP string

	draining atomic.Bool
	drainCh  chan struct{} // closed when draining starts
}

// New builds a server from cfg, normalizing zero fields to defaults.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 4 << 20
	}
	if cfg.PoisonCapacity == 0 {
		cfg.PoisonCapacity = 128
	}
	if cfg.Options.Metrics == nil {
		cfg.Options.Metrics = metrics.NewRegistry()
	}
	return &Server{
		cfg:     cfg,
		an:      beyondiv.NewAnalyzer(cfg.Options),
		reg:     cfg.Options.Metrics,
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue),
		poison:  newPoison(cfg.PoisonCapacity),
		optFP:   cfg.Options.Fingerprint(),
		drainCh: make(chan struct{}),
	}
}

// Registry returns the metrics registry the server records into.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Register mounts the /v1 API on mux — typically the debugserv mux,
// so the service and its debug surface share one port.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		s.handle("analyze", w, r, s.doAnalyze)
	})
	mux.HandleFunc("POST /v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		s.handle("optimize", w, r, s.doOptimize)
	})
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		s.handle("explain", w, r, s.doExplain)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, r *http.Request) {
		s.handle("batch", w, r, s.doBatch)
	})
}

// Health reports the server's live state for /healthz: draining once
// Drain has been called, plus admission-pipeline depths.
func (s *Server) Health() debugserv.Health {
	state := "ok"
	if s.draining.Load() {
		state = "draining"
	}
	return debugserv.Health{
		State:    state,
		InFlight: s.adm.inflight.Load(),
		Queued:   s.adm.queued.Load(),
	}
}

// Drain flips the server into draining mode — /healthz answers 503,
// new requests and queued waiters are rejected with kind "draining" —
// waits up to timeout for in-flight requests to finish, then for the
// analyzer's store writes (Analyzer.Flush), so a restart on the same
// CacheDir finds every program this process wrote. It returns true
// when the drain was clean (nothing in flight at return), false when
// the deadline expired with requests still running. Idempotent;
// concurrent calls all wait.
func (s *Server) Drain(timeout time.Duration) bool {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	defer s.an.Flush()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.adm.idle() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return s.adm.idle()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// request is every /v1 endpoint's body. Single-source endpoints use
// Source; /v1/batch uses Sources; /v1/explain needs Var or Deps.
type request struct {
	Source  string   `json:"source,omitempty"`
	Sources []string `json:"sources,omitempty"`
	// Var names the variable whose classification provenance
	// /v1/explain renders; Deps asks for every dependence edge's
	// provenance instead (both may be set).
	Var  string `json:"var,omitempty"`
	Deps bool   `json:"deps,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Inject (test traffic only; requires Config.AllowInject) makes the
	// named pipeline phase fail with a contained fault.
	Inject string `json:"inject,omitempty"`
}

// errorBody is every non-200 response: the rendered error, a stable
// machine-readable kind, and — for anything that reached the engine —
// the pipeline phase the failure is attributed to.
//
// Kinds by status: 400 bad_request; 422 input, limit; 429 shed;
// 500 fault (poisoned=true when served from the poison cache);
// 503 canceled, deadline, draining.
type errorBody struct {
	Error        string `json:"error"`
	Kind         string `json:"kind"`
	Phase        string `json:"phase,omitempty"`
	Poisoned     bool   `json:"poisoned,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// handle is the shared request path: count → drain gate → decode →
// deadline → poison gate → admission → run → respond. fn runs with the
// request's context and returns the endpoint's response value or an
// analysis error.
func (s *Server) handle(endpoint string, w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context, req *request) (any, error)) {
	start := time.Now()
	s.reg.Inc("serve.req")
	s.reg.Inc("serve.req." + endpoint)

	if s.draining.Load() {
		s.reg.Inc("serve.rejected.draining")
		s.reply(w, endpoint, start, http.StatusServiceUnavailable,
			errorBody{Error: "server is draining", Kind: "draining", RetryAfterMS: 1000})
		return
	}

	req, errb := s.decode(w, r)
	if errb != nil {
		s.reply(w, endpoint, start, http.StatusBadRequest, *errb)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = min(time.Duration(req.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Poison gate: a source that recently crashed the analyzer is
	// answered from the cache — same status and phase, none of the
	// work. Injected test faults bypass the cache in both directions
	// (they would poison legitimate sources).
	if req.Inject == "" && req.Source != "" {
		if entry, ok := s.poison.lookup(keyOf(endpoint, s.optFP, req.Source)); ok {
			s.reg.Inc("serve.poison.hit")
			s.reply(w, endpoint, start, http.StatusInternalServerError,
				errorBody{Error: entry.msg, Kind: "fault", Phase: entry.phase, Poisoned: true})
			return
		}
	}

	switch s.adm.acquire(ctx, s.drainCh) {
	case shed:
		s.reg.Inc("serve.shed")
		w.Header().Set("Retry-After", "1")
		s.reply(w, endpoint, start, http.StatusTooManyRequests,
			errorBody{Error: "server at capacity: worker slots and wait queue full", Kind: "shed", RetryAfterMS: 1000})
		return
	case cancelled:
		s.reply(w, endpoint, start, http.StatusServiceUnavailable,
			errorBody{Error: "request " + cancelKind(ctx.Err()) + " while queued for admission", Kind: cancelKind(ctx.Err()), Phase: "admission"})
		return
	case draining:
		s.reg.Inc("serve.rejected.draining")
		s.reply(w, endpoint, start, http.StatusServiceUnavailable,
			errorBody{Error: "server began draining while request was queued", Kind: "draining", RetryAfterMS: 1000})
		return
	}
	defer s.adm.release()
	s.gauges()

	out, err := fn(ctx, req)
	if err != nil {
		status, body := s.classify(endpoint, req, err)
		s.reply(w, endpoint, start, status, body)
		return
	}
	s.reply(w, endpoint, start, http.StatusOK, out)
}

// decode parses and validates the request body. It returns a non-nil
// errorBody for malformed or invalid requests (always kind
// "bad_request" — the request never reached the engine).
func (s *Server) decode(w http.ResponseWriter, r *http.Request) (*request, *errorBody) {
	var req request
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, &errorBody{Error: "bad request body: " + err.Error(), Kind: "bad_request"}
	}
	isBatch := r.URL.Path == "/v1/batch"
	switch {
	case isBatch && len(req.Sources) == 0:
		return nil, &errorBody{Error: `"sources" must name at least one program`, Kind: "bad_request"}
	case isBatch && req.Source != "":
		return nil, &errorBody{Error: `batch takes "sources", not "source"`, Kind: "bad_request"}
	case !isBatch && req.Source == "":
		return nil, &errorBody{Error: `"source" is required`, Kind: "bad_request"}
	case !isBatch && len(req.Sources) != 0:
		return nil, &errorBody{Error: `"sources" is only valid on /v1/batch`, Kind: "bad_request"}
	case req.Inject != "" && !s.cfg.AllowInject:
		return nil, &errorBody{Error: `"inject" requires the server to run with fault injection enabled`, Kind: "bad_request"}
	case r.URL.Path == "/v1/explain" && req.Var == "" && !req.Deps:
		return nil, &errorBody{Error: `explain needs "var" and/or "deps": true`, Kind: "bad_request"}
	}
	return &req, nil
}

// classify maps an analysis error to its HTTP status and body, and
// feeds the poison cache on contained faults, keyed by the endpoint
// the fault happened on.
func (s *Server) classify(endpoint string, req *request, err error) (int, errorBody) {
	var ee *beyondiv.Error
	phase := ""
	if errors.As(err, &ee) {
		phase = ee.Phase
	}
	var ce *guard.CancelError
	if errors.As(err, &ce) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		kind := cancelKind(err)
		s.reg.Inc("serve.err." + kind)
		return http.StatusServiceUnavailable, errorBody{Error: err.Error(), Kind: kind, Phase: phase}
	}
	if ee != nil && ee.Stack != nil {
		// Contained panic: an analyzer bug, not an input diagnostic.
		// Remember the source so replays are rejected from the cache.
		s.reg.Inc("serve.err.fault")
		if req.Inject == "" && req.Source != "" {
			s.poison.add(keyOf(endpoint, s.optFP, req.Source), ee.Phase, err.Error())
			s.reg.Inc("serve.poison.add")
		}
		return http.StatusInternalServerError, errorBody{Error: err.Error(), Kind: "fault", Phase: phase}
	}
	kind := "input"
	var le *guard.LimitError
	if errors.As(err, &le) {
		kind = "limit"
	}
	s.reg.Inc("serve.err." + kind)
	return http.StatusUnprocessableEntity, errorBody{Error: err.Error(), Kind: kind, Phase: phase}
}

// cancelKind distinguishes a deadline expiry from a client cancel.
func cancelKind(err error) string {
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	return "canceled"
}

// reply writes one JSON response and records the request's metrics:
// per-endpoint latency histogram and per-status counters.
func (s *Server) reply(w http.ResponseWriter, endpoint string, start time.Time, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
	s.reg.ObserveDuration("serve.latency."+endpoint, time.Since(start))
	s.reg.Inc("serve.http." + strconv.Itoa(status))
	if status == http.StatusOK {
		s.reg.Inc("serve.ok")
	}
	s.gauges()
}

// gauges publishes the admission pipeline's current depths.
func (s *Server) gauges() {
	s.reg.SetGauge("serve.inflight", s.adm.inflight.Load())
	s.reg.SetGauge("serve.queue.depth", s.adm.queued.Load())
}

// analyzer returns the analyzer a request runs on: the shared one, or
// — for injected test faults — a private uncached analyzer whose named
// phase panics.
func (s *Server) analyzer(req *request) *beyondiv.Analyzer {
	if req.Inject == "" {
		return s.an
	}
	opts := s.cfg.Options
	// Faults must not be masked (or cached) — by the in-memory cache or
	// by the persistent store, either of which could serve a decoded
	// result without ever reaching the injected phase.
	opts.CacheEntries, opts.CacheDir = 0, ""
	opts.Limits.Inject = guard.PanicIn(req.Inject)
	return beyondiv.NewAnalyzer(opts)
}

// analyzeResponse is /v1/analyze's 200 body (and the per-source shape
// inside /v1/batch results).
type analyzeResponse struct {
	Classification string `json:"classification"`
	Dependences    string `json:"dependences,omitempty"`
	ElapsedUS      int64  `json:"elapsed_us"`
}

func (s *Server) doAnalyze(ctx context.Context, req *request) (any, error) {
	start := time.Now()
	prog, err := s.analyzer(req).AnalyzeContext(ctx, req.Source)
	if err != nil {
		return nil, err
	}
	return &analyzeResponse{
		Classification: prog.ClassificationReport(),
		Dependences:    prog.DependenceReport(),
		ElapsedUS:      time.Since(start).Microseconds(),
	}, nil
}

// optimizeResponse is /v1/optimize's 200 body: the transformed
// program's reports plus the pass statistics.
type optimizeResponse struct {
	analyzeResponse
	Rounds      int        `json:"rounds"`
	Rewrites    int        `json:"rewrites"`
	Validations int        `json:"validations"`
	Passes      []passStat `json:"passes,omitempty"`
	// ParallelLoops lists the loops parmark proved parallel, by
	// effective label, after chunked-vs-sequential validation.
	ParallelLoops []string `json:"parallel_loops,omitempty"`
}

type passStat struct {
	Name     string `json:"name"`
	Round    int    `json:"round"`
	Rewrites int    `json:"rewrites"`
}

func (s *Server) doOptimize(ctx context.Context, req *request) (any, error) {
	start := time.Now()
	res, err := s.analyzer(req).OptimizeContext(ctx, req.Source)
	if err != nil {
		return nil, err
	}
	out := &optimizeResponse{
		analyzeResponse: analyzeResponse{
			Classification: res.Program.ClassificationReport(),
			Dependences:    res.Program.DependenceReport(),
			ElapsedUS:      time.Since(start).Microseconds(),
		},
		Rounds:        res.Rounds,
		Rewrites:      res.Rewrites,
		Validations:   res.Validations,
		ParallelLoops: res.ParallelLoops,
	}
	for _, st := range res.Stats {
		out.Passes = append(out.Passes, passStat{Name: st.Name, Round: st.Round, Rewrites: st.Rewrites})
	}
	return out, nil
}

// explainResponse is /v1/explain's 200 body: provenance, not just
// verdicts — which paper rule classified the variable, through which
// feeding classifications, and/or each dependence edge's decision
// procedure.
type explainResponse struct {
	Explain string `json:"explain,omitempty"`
	Deps    string `json:"deps,omitempty"`
}

func (s *Server) doExplain(ctx context.Context, req *request) (any, error) {
	prog, err := s.analyzer(req).AnalyzeContext(ctx, req.Source)
	if err != nil {
		return nil, err
	}
	out := &explainResponse{}
	if req.Var != "" {
		out.Explain = prog.Explain(req.Var)
		if out.Explain == "" {
			out.Explain = fmt.Sprintf("no loop defines a variable %q", req.Var)
		}
	}
	if req.Deps {
		out.Deps = prog.ExplainAllDeps()
	}
	return out, nil
}

// batchResponse is /v1/batch's 200 body: one entry per source, in
// input order. Per-source failures are isolated — each entry carries
// either reports or its own error/kind/phase — and a cancelled batch
// marks never-scheduled sources with kind canceled/deadline, phase
// "batch".
type batchResponse struct {
	Results []batchEntry `json:"results"`
	Errors  int          `json:"errors"`
}

type batchEntry struct {
	Index          int    `json:"index"`
	Classification string `json:"classification,omitempty"`
	Dependences    string `json:"dependences,omitempty"`
	Error          string `json:"error,omitempty"`
	Kind           string `json:"kind,omitempty"`
	Phase          string `json:"phase,omitempty"`
}

func (s *Server) doBatch(ctx context.Context, req *request) (any, error) {
	out := &batchResponse{Results: make([]batchEntry, len(req.Sources))}
	// Per-source poison gate: the handle-level gate only sees "source",
	// so remembered batch crashers are filtered here — answered from the
	// cache without re-entering the pipeline or failing their batch.
	run := make([]string, 0, len(req.Sources))
	runIdx := make([]int, 0, len(req.Sources))
	for i, src := range req.Sources {
		if req.Inject == "" {
			if entry, ok := s.poison.lookup(keyOf("batch", s.optFP, src)); ok {
				s.reg.Inc("serve.poison.hit")
				out.Errors++
				out.Results[i] = batchEntry{Index: i, Error: entry.msg, Kind: "fault", Phase: entry.phase}
				continue
			}
		}
		run = append(run, src)
		runIdx = append(runIdx, i)
	}
	for j, r := range s.analyzer(req).AnalyzeAllContext(ctx, run) {
		entry := batchEntry{Index: runIdx[j]}
		if r.Err != nil {
			out.Errors++
			_, body := s.classify("batch", &request{Source: r.Source, Inject: req.Inject}, r.Err)
			entry.Error, entry.Kind, entry.Phase = body.Error, body.Kind, body.Phase
		} else {
			entry.Classification = r.Program.ClassificationReport()
			entry.Dependences = r.Program.DependenceReport()
		}
		out.Results[runIdx[j]] = entry
	}
	return out, nil
}
