package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/progen"
)

// LoadConfig drives one chaos run against a live bivd. The mix is the
// point: alongside well-formed traffic it sends everything a hostile or
// merely unlucky network can — crashers, limit-trippers, slow-loris
// bodies, mid-request hangups — and the report says how the server
// degraded.
type LoadConfig struct {
	// Addr is the server's host:port (no scheme).
	Addr string
	// Duration bounds the run; <= 0 means 2s.
	Duration time.Duration
	// Concurrency is the number of client workers; <= 0 means 8.
	Concurrency int
	// Inject, when non-empty, adds a fault-injection request class: the
	// named phase panics server-side (needs bivd -inject). The panic is
	// contained and answered as a structured 500 — an uncontained one
	// would kill the server and fail the run.
	Inject string
	// TimeoutMS is the per-request deadline the well-formed classes ask
	// for; <= 0 means 2000.
	TimeoutMS int64
	// Seed makes the traffic mix reproducible; 0 means 1.
	Seed int64
}

// LoadReport is the outcome of one chaos run: latency percentiles,
// throughput, shed rate, and the full error taxonomy (by HTTP status
// and by the structured "kind" in error bodies). Unexplained counts
// 5xx responses whose body carried no recognised kind — the chaos run's
// failure signal, since every error bivd produces on purpose is
// attributed.
type LoadReport struct {
	DurationMS  int64            `json:"duration_ms"`
	Requests    int64            `json:"requests"`
	OK          int64            `json:"ok"`
	Shed        int64            `json:"shed"`
	ShedRate    float64          `json:"shed_rate"`
	Throughput  float64          `json:"throughput_rps"`
	P50US       int64            `json:"p50_us"`
	P99US       int64            `json:"p99_us"`
	ByClass     map[string]int64 `json:"by_class"`
	ByStatus    map[string]int64 `json:"by_status"`
	ByKind      map[string]int64 `json:"by_kind"`
	ClientErrs  int64            `json:"client_errors"`
	Unexplained int64            `json:"unexplained_5xx"`
}

// loadState is the shared scoreboard the workers write into.
type loadState struct {
	cfg    LoadConfig
	client *http.Client
	reg    *metrics.Registry // load.latency histogram
	mu     sync.Mutex
	report LoadReport

	requests    atomic.Int64
	ok          atomic.Int64
	shed        atomic.Int64
	clientErrs  atomic.Int64
	unexplained atomic.Int64
}

func (ls *loadState) count(m map[string]int64, key string) {
	ls.mu.Lock()
	m[key]++
	ls.mu.Unlock()
}

// RunLoad fires the chaos mix at cfg.Addr until the duration elapses
// and returns the aggregated report. The request classes, weighted
// toward plausible traffic with a steady trickle of abuse:
//
//	hot        the same small program every time — server cache hits
//	cold       a fresh progen program per request — cache misses
//	batch      several fresh programs through /v1/batch
//	explain    a provenance query on the hot program
//	optimize   the transformation pipeline on the hot program
//	badinput   a parse-error program → 422 input
//	guardtrip  a loop nest past the depth ceiling → 422 limit
//	tinyto     timeout_ms:1 on real work → 503 deadline (usually)
//	inject     server-side contained fault → 500 fault (when enabled)
//	slowloris  a trickled, never-finished body → server read deadline
//	cancel     client hangs up mid-request → server stops the run
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.TimeoutMS <= 0 {
		cfg.TimeoutMS = 2000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ls := &loadState{
		cfg:    cfg,
		client: &http.Client{Timeout: 30 * time.Second},
		reg:    metrics.NewRegistry(),
		report: LoadReport{
			ByClass:  make(map[string]int64),
			ByStatus: make(map[string]int64),
			ByKind:   make(map[string]int64),
		},
	}
	// Probe once so a wrong address fails fast instead of producing a
	// report full of client errors.
	if resp, err := ls.client.Get("http://" + cfg.Addr + "/healthz"); err != nil {
		return nil, fmt.Errorf("loadgen: server not reachable at %s: %w", cfg.Addr, err)
	} else {
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			gen := progen.New()
			for ctx.Err() == nil {
				ls.one(ctx, rng, gen, w)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := &ls.report
	r.DurationMS = elapsed.Milliseconds()
	r.Requests = ls.requests.Load()
	r.OK = ls.ok.Load()
	r.Shed = ls.shed.Load()
	r.ClientErrs = ls.clientErrs.Load()
	r.Unexplained = ls.unexplained.Load()
	if r.Requests > 0 {
		r.ShedRate = float64(r.Shed) / float64(r.Requests)
		r.Throughput = float64(r.Requests) / elapsed.Seconds()
	}
	if h, ok := ls.reg.Snapshot().Hists["load.latency"]; ok {
		r.P50US = h.P50 / 1000
		r.P99US = h.P99 / 1000
	}
	return r, nil
}

// WriteJSON renders the report, indented, to w.
func (r *LoadReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (bivload -bench-json).
func (r *LoadReport) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// hotSource is the request every "hot" class iteration sends — the
// server's result cache absorbs all but the first.
var hotSource = progen.StraightLineLoop(8)

// one issues a single request of a randomly chosen class.
func (ls *loadState) one(ctx context.Context, rng *rand.Rand, gen *progen.Gen, worker int) {
	type class struct {
		name   string
		weight int
		run    func()
	}
	to := ls.cfg.TimeoutMS
	classes := []class{
		{"hot", 30, func() { ls.post(ctx, "/v1/analyze", &request{Source: hotSource, TimeoutMS: to}) }},
		{"cold", 20, func() { ls.post(ctx, "/v1/analyze", &request{Source: gen.Program(rng.Int63()), TimeoutMS: to}) }},
		{"batch", 6, func() {
			srcs := make([]string, 3)
			for i := range srcs {
				srcs[i] = gen.Program(rng.Int63())
			}
			ls.post(ctx, "/v1/batch", &request{Sources: srcs, TimeoutMS: to})
		}},
		{"explain", 6, func() { ls.post(ctx, "/v1/explain", &request{Source: hotSource, Var: "i", Deps: true, TimeoutMS: to}) }},
		{"optimize", 6, func() { ls.post(ctx, "/v1/optimize", &request{Source: hotSource, TimeoutMS: to}) }},
		{"badinput", 8, func() { ls.post(ctx, "/v1/analyze", &request{Source: "for { this is not a program", TimeoutMS: to}) }},
		{"guardtrip", 8, func() { ls.post(ctx, "/v1/analyze", &request{Source: progen.NestedLoops(80), TimeoutMS: to}) }},
		{"tinyto", 6, func() {
			// Unique suffix keeps the source out of the server's result
			// cache — a cache hit is served free even under a dead
			// deadline, so only cold work can trip timeout_ms: 1.
			src := fmt.Sprintf("%s\n// cold %d", progen.MutualChain(400), rng.Int63())
			ls.post(ctx, "/v1/analyze", &request{Source: src, TimeoutMS: 1})
		}},
		{"slowloris", 5, func() { ls.slowloris(ctx) }},
		{"cancel", 5, func() { ls.cancelled(ctx, gen.Program(rng.Int63())) }},
	}
	if ls.cfg.Inject != "" {
		classes = append(classes, class{"inject", 6, func() {
			ls.post(ctx, "/v1/analyze", &request{Source: gen.Program(rng.Int63()), Inject: ls.cfg.Inject, TimeoutMS: to})
		}})
	}
	total := 0
	for _, c := range classes {
		total += c.weight
	}
	pick := rng.Intn(total)
	for _, c := range classes {
		if pick -= c.weight; pick < 0 {
			ls.count(ls.report.ByClass, c.name)
			c.run()
			return
		}
	}
}

// post sends one JSON request and scores the response: status and —
// for errors — the structured kind from the body. A 5xx without a
// recognised kind counts as unexplained.
func (ls *loadState) post(ctx context.Context, path string, req *request) {
	body, _ := json.Marshal(req)
	start := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, "POST", "http://"+ls.cfg.Addr+path, bytes.NewReader(body))
	if err != nil {
		ls.clientErrs.Add(1)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	ls.requests.Add(1)
	resp, err := ls.client.Do(hreq)
	if err != nil {
		// Run-deadline cancellations of in-flight requests land here;
		// they are the harness stopping, not a server failure.
		ls.clientErrs.Add(1)
		return
	}
	defer resp.Body.Close()
	ls.reg.ObserveDuration("load.latency", time.Since(start))
	ls.count(ls.report.ByStatus, fmt.Sprintf("%d", resp.StatusCode))
	if resp.StatusCode == http.StatusOK {
		ls.ok.Add(1)
		io.Copy(io.Discard, resp.Body)
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		ls.shed.Add(1)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Kind == "" {
		ls.count(ls.report.ByKind, "undecodable")
		if resp.StatusCode >= 500 {
			ls.unexplained.Add(1)
		}
		return
	}
	ls.count(ls.report.ByKind, eb.Kind)
	if resp.StatusCode >= 500 {
		switch eb.Kind {
		case "fault", "canceled", "deadline", "draining":
			// Attributed — the server said why.
		default:
			ls.unexplained.Add(1)
		}
	}
}

// slowloris opens a raw connection, sends headers promising a large
// body, trickles a few bytes, and abandons the request. The server's
// read deadline (debugserv Options.ReadTimeout, bivd -read-timeout)
// must reap the connection rather than let it pin resources; the class
// asserts nothing per-request — its damage shows up, if at all, as
// other classes shedding.
func (ls *loadState) slowloris(ctx context.Context) {
	d := net.Dialer{Timeout: 2 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", ls.cfg.Addr)
	if err != nil {
		ls.clientErrs.Add(1)
		return
	}
	defer conn.Close()
	ls.requests.Add(1)
	fmt.Fprintf(conn, "POST /v1/analyze HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: 100000\r\n\r\n", ls.cfg.Addr)
	for i := 0; i < 5; i++ {
		if _, err := conn.Write([]byte("{")); err != nil {
			return // server cut us off — the defense working
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// cancelled starts a real request and hangs up a few milliseconds in,
// exercising the server's cooperative cancellation mid-analysis.
func (ls *loadState) cancelled(ctx context.Context, source string) {
	cctx, cancel := context.WithTimeout(ctx, time.Duration(1+rand.Intn(4))*time.Millisecond)
	defer cancel()
	body, _ := json.Marshal(&request{Source: source})
	hreq, err := http.NewRequestWithContext(cctx, "POST", "http://"+ls.cfg.Addr+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		ls.clientErrs.Add(1)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	ls.requests.Add(1)
	resp, err := ls.client.Do(hreq)
	if err != nil {
		return // expected: we hung up
	}
	// The race went the response's way — score it normally.
	defer resp.Body.Close()
	ls.count(ls.report.ByStatus, fmt.Sprintf("%d", resp.StatusCode))
	if resp.StatusCode == http.StatusOK {
		ls.ok.Add(1)
	}
	io.Copy(io.Discard, resp.Body)
}
