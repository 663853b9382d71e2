package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"beyondiv"
	"beyondiv/internal/codec"
	"beyondiv/internal/parse"
	"beyondiv/internal/progen"
)

// The serve workload: a real bivd process under a seeded traffic mix.
//
//	set-up      start bivd without a store, wait for /healthz, warm the
//	            hot sources, stop (repeated; set-up time is the median);
//	            then start the measured daemon on a fresh store, untimed
//	warm        the mix as a closed loop, untimed, until the result cache
//	            holds cold entries and the daemon's heap is at working size
//	open        open loop at openRate requests/s, about a quarter of
//	            saturation on a 2-CPU host (informational rows)
//	client      one client sending back to back, in one-second windows
//	            each after a calibration: the latency and throughput
//	            metrics
//	saturation  closed loop over both connections (informational row;
//	            with both CPUs busy it lost twice the share a competing
//	            process took from one client)
//	restart     SIGTERM, start again on the same store, replay the cold
//	            sources of the open and client phases (the warm restart)
//
// Load comes from this one process over at most serveConns connections.
// Open-loop requests are timed from when they were due, so a stall is
// charged to every request it delays; with two connections that makes
// one stall of the daemon's collector or of the host a dozen tail
// samples, and the open loop's p99 moved by a third between runs of one
// seed. A single client's requests are timed from when they were sent:
// its latencies are the daemon's service times, which the bounded
// metrics report with the client's completions per second, calibrated
// window by window against the host's speed as the library workloads'
// passes are.

const (
	serveConns = 2
	hotSources = 8
	replayMax  = 1000
	// serveCache holds the mix's repeated sources several times over. The
	// daemon's default of 1024 entries, filled by cold results that never
	// repeat, only tripled its heap, and the longer collections that came
	// with it set the run-to-run spread.
	serveCache = 256
	openRate   = 200.0
	// maxRate bounds how many requests a closed-loop phase draws per
	// second of its length: above any rate the server reaches.
	maxRate = 1500.0
	// The one-client phase, which the bounded metrics come from, gets
	// two thirds of the run: about twenty one-second windows of some 500
	// requests each, whose medians the metrics are.
	shareWarm    = 0.10
	shareOpen    = 0.10
	shareClient  = 0.65
	shareSat     = 0.05
	setupStarts  = 16
	clientWindow = time.Second
	healthyAfter = 30 * time.Second
)

// Daemon starts and stops the analysis service the serve workload
// drives.
type Daemon interface {
	// Start launches a server persisting to cacheDir, or to no disk
	// store when cacheDir is "", and returns its host:port as soon as it
	// is listening.
	Start(cacheDir string) (string, error)
	// Stop asks the server to drain and waits until it has exited.
	Stop() error
	// PID is the serving process's id.
	PID() int
}

// execDaemon runs the bivd binary.
type execDaemon struct {
	bin  string
	cmd  *exec.Cmd
	done chan error
	log  *addrWriter
}

// buildBivd compiles cmd/bivd from the checkout into .bench_build/bin.
func buildBivd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "bivd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/bivd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building bivd: %v\n%s", err, out)
	}
	return bin, nil
}

// addrWriter collects bivd's stderr and reports the address from its
// "listening on" line.
type addrWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var listenRE = regexp.MustCompile(`listening on http://(\S+)`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.buf.Len() < 1<<16 {
		w.buf.Write(p)
	}
	if m := listenRE.FindSubmatch(w.buf.Bytes()); m != nil && !w.sent {
		w.sent = true
		w.addr <- string(m[1])
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// Start runs bivd with one job per batch request (-jobs 1), so a request
// of the one-client phase keeps one CPU busy whatever its kind. What the
// reference host gives two busy threads at once varies far more than
// what it gives one: over one set of ten runs, two SHA-256 loops run
// together spread 0.48 and one alone 0.10. With two jobs the batch
// requests, which set the p99, spread the most of all kinds (median
// latency 0.21, against 0.04 to 0.17 for the others).
func (d *execDaemon) Start(cacheDir string) (string, error) {
	args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serveConns),
		"-jobs", "1", "-parallel", "1", "-cache", strconv.Itoa(serveCache)}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(d.bin, args...)
	d.log = &addrWriter{addr: make(chan string, 1)}
	cmd.Stdout, cmd.Stderr = io.Discard, d.log
	KillWithParent(cmd)
	if err := cmd.Start(); err != nil {
		return "", err
	}
	d.cmd, d.done = cmd, make(chan error, 1)
	go func() { d.done <- cmd.Wait() }()
	select {
	case addr := <-d.log.addr:
		return addr, nil
	case err := <-d.done:
		return "", fmt.Errorf("bivd exited before listening: %v\n%s", err, d.log)
	case <-time.After(healthyAfter):
		cmd.Process.Kill()
		<-d.done
		return "", fmt.Errorf("bivd did not report its address\n%s", d.log)
	}
}

func (d *execDaemon) Stop() error {
	if d.cmd == nil {
		return nil
	}
	defer func() { d.cmd = nil }()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		if err != nil {
			return fmt.Errorf("bivd: %v\n%s", err, d.log)
		}
		return nil
	case <-time.After(healthyAfter):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("bivd did not drain\n%s", d.log)
	}
}

func (d *execDaemon) PID() int { return d.cmd.Process.Pid }

// serveReq is one request of the mix.
type serveReq struct {
	kind    string // hot, cold, explain, optimize, batch, variant
	path    string
	body    []byte
	sources []string
	varName string
}

// serveMix draws the seeded request stream: 60% hot /v1/analyze on
// hotSources fixed paper programs (memory hits), 15% cold /v1/analyze
// on fresh generated programs (full pipeline, store write and α-twin),
// 10% /v1/explain on hot sources, 5% /v1/optimize on paper programs, 5%
// /v1/batch of three cold programs, and 5% α-renamed, reformatted
// variants of earlier cold programs (structural disk hits).
//
// Memory hits and explains are 70% of requests, so the median latency
// falls inside their distribution. At 55% it fell where that
// distribution ends and the slower kinds begin: latency nearly doubles
// from the 45th percentile to the 55th there, and the median doubled in
// runs where the memory hits themselves slowed by a quarter.
//
// Cold programs are progen.DepWorkload loop nests, whose size is
// bounded. Random progen programs have a long size tail: the few
// outsized ones a seed drew set the run's p99 and moved it by a third
// between seeds.
//
// Like the library workloads, every seed sends the same requests; the
// seed orders them. Each block of len(mixDeck) requests holds exactly
// the mix's shares, and cold programs are taken in generator order from
// one range, so no seed draws more batches or larger programs than
// another.
type serveMix struct {
	rng     *rand.Rand
	nextGen int64
	hot     []Program
	paper   []Program
	cold    []string
	deck    []string // the current block's kinds still to send
}

// mixDeck is one block of the mix.
var mixDeck = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"cold", "cold", "cold", "explain", "explain", "optimize", "batch", "variant",
}

// coldBase starts the generator range of the cold programs, which no
// other workload draws.
const coldBase = 1_000_000_000

func newServeMix(seed int64) *serveMix {
	m := &serveMix{rng: rand.New(rand.NewSource(seed)), nextGen: coldBase, paper: paperPrograms()}
	// The hot sources are fixed, spread evenly over the corpus, so the
	// seed does not change what the hot requests and the set-up's warm-up
	// cost: hot requests set the median latency.
	for i := 0; i < hotSources; i++ {
		m.hot = append(m.hot, m.paper[i*len(m.paper)/hotSources])
	}
	return m
}

func (m *serveMix) coldSource() string {
	src := progen.DepWorkload(m.nextGen)
	m.nextGen++
	m.cold = append(m.cold, src)
	return src
}

// explainVar names a variable the paper program classifies.
func explainVar(p Program) string {
	if len(p.Paper.Expect) == 0 {
		return "i"
	}
	return strings.TrimRight(p.Paper.Expect[0].Value, "0123456789")
}

// variantOf α-renames src (every name gains a "w" prefix, which keeps
// the names' relative order) and reformats it with a comment line, so
// it misses the exact-source tiers and hits the structural entry.
func variantOf(src string, n int) string {
	file, err := parse.File(src)
	if err != nil {
		return src
	}
	_, names := codec.StructuralHash(file)
	renamed := make([]string, len(names))
	for i, name := range names {
		renamed[i] = "w" + name
	}
	return fmt.Sprintf("// variant %d\n%s", n, codec.RewriteSource(file.String(), names, renamed))
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain strings and bools are marshaled
	}
	return b
}

func (m *serveMix) next() *serveReq {
	if len(m.deck) == 0 {
		m.deck = slices.Clone(mixDeck)
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	kind := m.deck[0]
	m.deck = m.deck[1:]
	switch {
	case kind == "hot" || (kind == "variant" && len(m.cold) == 0):
		src := m.hot[m.rng.Intn(len(m.hot))].Source
		return &serveReq{kind: "hot", path: "/v1/analyze", sources: []string{src}, body: jsonBody(map[string]any{"source": src})}
	case kind == "cold":
		src := m.coldSource()
		return &serveReq{kind: "cold", path: "/v1/analyze", sources: []string{src}, body: jsonBody(map[string]any{"source": src})}
	case kind == "explain":
		p := m.hot[m.rng.Intn(len(m.hot))]
		v := explainVar(p)
		return &serveReq{kind: "explain", path: "/v1/explain", sources: []string{p.Source}, varName: v,
			body: jsonBody(map[string]any{"source": p.Source, "var": v, "deps": true})}
	case kind == "optimize":
		src := m.paper[m.rng.Intn(len(m.paper))].Source
		return &serveReq{kind: "optimize", path: "/v1/optimize", sources: []string{src}, body: jsonBody(map[string]any{"source": src})}
	case kind == "batch":
		srcs := []string{m.coldSource(), m.coldSource(), m.coldSource()}
		return &serveReq{kind: "batch", path: "/v1/batch", sources: srcs, body: jsonBody(map[string]any{"sources": srcs})}
	default:
		src := variantOf(m.cold[m.rng.Intn(len(m.cold))], len(m.cold))
		return &serveReq{kind: "variant", path: "/v1/analyze", sources: []string{src}, body: jsonBody(map[string]any{"source": src})}
	}
}

// take draws n requests.
func (m *serveMix) take(n int) []*serveReq {
	out := make([]*serveReq, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}

// reply is one answered (or failed) request.
type reply struct {
	req    *serveReq
	status int
	body   []byte
	err    error
	lat    time.Duration // from due (open loop) or send (closed loop)
	rtt    time.Duration // from send
	late   time.Duration // send minus due
	done   time.Time
}

type serveClient struct {
	http *http.Client
	addr string
}

func newServeClient() *serveClient {
	tr := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	return &serveClient{http: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *serveClient) do(req *serveReq, due time.Time) reply {
	send := time.Now()
	rp := reply{req: req, late: send.Sub(due)}
	resp, err := c.http.Post("http://"+c.addr+req.path, "application/json", bytes.NewReader(req.body))
	if err == nil {
		rp.status = resp.StatusCode
		rp.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rp.done = time.Now()
	rp.err, rp.lat, rp.rtt = err, rp.done.Sub(due), rp.done.Sub(send)
	return rp
}

func (c *serveClient) waitHealthy() error {
	deadline := time.Now().Add(healthyAfter)
	for {
		resp, err := c.http.Get("http://" + c.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy: %v", c.addr, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *serveClient) counters() (map[string]int64, error) {
	resp, err := c.http.Get("http://" + c.addr + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return snap.Counters, nil
}

// openLoop sends reqs at a fixed rate over serveConns connections. A
// request waits client-side while every connection is busy; its latency
// still counts from its due time.
func (c *serveClient) openLoop(reqs []*serveReq, rate float64) []reply {
	out := make([]reply, len(reqs))
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j.i] = c.do(reqs[j.i], j.due)
			}
		}()
	}
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	return out
}

// clientPhase sends reqs back to back over one connection for about d,
// in windows of about clientWindow with a calibration (calibrate.go)
// before each, while no request is in flight. It returns the replies
// and, per window, the replies' latencies, the completions per second
// and the calibration factor.
func (c *serveClient) clientPhase(reqs []*serveReq, d time.Duration) (out []reply, lat [][]float64, tput, k []float64) {
	n := max(1, int(d/clientWindow))
	for w := 0; w < n && len(out) < len(reqs); w++ {
		kw := calScale(calibrate())
		win, dur := c.closedLoop(reqs[len(out):], d/time.Duration(n), 1)
		out = append(out, win...)
		lat = append(lat, latMS(win))
		tput = append(tput, float64(len(win))/dur.Seconds())
		k = append(k, kw)
	}
	return out, lat, tput, k
}

// closedLoop sends reqs back to back over conns connections until they
// run out or d has passed (d <= 0: until they run out).
func (c *serveClient) closedLoop(reqs []*serveReq, d time.Duration, conns int) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d <= 0 || time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = c.do(reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	return out[:n], time.Since(start)
}

func (c *serveClient) close() { c.http.CloseIdleConnections() }

// ref is the library's answer for one source, rendered.
type ref struct {
	class, deps string
	explain     map[string]string
	explainDeps string
	opt         *beyondiv.OptimizeResult
}

type analyzeBody struct {
	Classification string `json:"classification"`
	Dependences    string `json:"dependences"`
}

type optimizeBody struct {
	analyzeBody
	Rounds        int      `json:"rounds"`
	Rewrites      int      `json:"rewrites"`
	Validations   int      `json:"validations"`
	ParallelLoops []string `json:"parallel_loops"`
}

type explainBody struct {
	Explain string `json:"explain"`
	Deps    string `json:"deps"`
}

type batchBody struct {
	Results []struct {
		analyzeBody
		Error string `json:"error"`
	} `json:"results"`
	Errors int `json:"errors"`
}

// serveOracle answers every request source from the library, outside
// any timed phase, and checks response bodies against it.
type serveOracle struct {
	an   *beyondiv.Analyzer
	refs map[string]*ref
}

func (o *serveOracle) get(src string) (*ref, error) {
	if rf, ok := o.refs[src]; ok {
		return rf, nil
	}
	p, err := o.an.Analyze(src)
	if err != nil {
		return nil, err
	}
	rf := &ref{class: p.ClassificationReport(), deps: p.DependenceReport(), explain: map[string]string{}}
	o.refs[src] = rf
	return rf, nil
}

func (o *serveOracle) check(rp reply) error {
	req := rp.req
	if rp.err != nil {
		return fmt.Errorf("%s: %v", req.kind, rp.err)
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", req.kind, rp.status, rp.body)
	}
	switch req.kind {
	case "hot", "cold", "variant":
		var b analyzeBody
		if err := json.Unmarshal(rp.body, &b); err != nil {
			return fmt.Errorf("%s: %w", req.kind, err)
		}
		rf, err := o.get(req.sources[0])
		if err != nil {
			return err
		}
		if b.Classification != rf.class || b.Dependences != rf.deps {
			return fmt.Errorf("%s: report differs from the library's", req.kind)
		}
	case "explain":
		var b explainBody
		if err := json.Unmarshal(rp.body, &b); err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		rf, err := o.get(req.sources[0])
		if err != nil {
			return err
		}
		want, ok := rf.explain[req.varName]
		if !ok {
			p, err := o.an.Analyze(req.sources[0])
			if err != nil {
				return err
			}
			want = p.Explain(req.varName)
			if want == "" {
				want = fmt.Sprintf("no loop defines a variable %q", req.varName)
			}
			rf.explain[req.varName], rf.explainDeps = want, p.ExplainAllDeps()
		}
		if b.Explain != want || b.Deps != rf.explainDeps {
			return errors.New("explain: provenance differs from the library's")
		}
	case "optimize":
		var b optimizeBody
		if err := json.Unmarshal(rp.body, &b); err != nil {
			return fmt.Errorf("optimize: %w", err)
		}
		rf, err := o.get(req.sources[0])
		if err != nil {
			return err
		}
		if rf.opt == nil {
			if rf.opt, err = o.an.Optimize(req.sources[0]); err != nil {
				return err
			}
		}
		res := rf.opt
		if b.Classification != res.Program.ClassificationReport() || b.Dependences != res.Program.DependenceReport() ||
			b.Rounds != res.Rounds || b.Rewrites != res.Rewrites || b.Validations != res.Validations ||
			!slices.Equal(b.ParallelLoops, res.ParallelLoops) {
			return errors.New("optimize: result differs from the library's")
		}
	case "batch":
		var b batchBody
		if err := json.Unmarshal(rp.body, &b); err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		if b.Errors != 0 || len(b.Results) != len(req.sources) {
			return fmt.Errorf("batch: %d errors over %d results", b.Errors, len(b.Results))
		}
		for i, src := range req.sources {
			rf, err := o.get(src)
			if err != nil {
				return err
			}
			if b.Results[i].Classification != rf.class || b.Results[i].Dependences != rf.deps {
				return fmt.Errorf("batch: entry %d differs from the library's", i)
			}
		}
	}
	return nil
}

var elapsedRE = regexp.MustCompile(`"elapsed_us":\s*\d+`)

func latMS(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, rp := range rs {
		out[i] = float64(rp.lat.Nanoseconds()) / 1e6
	}
	return out
}

// cacheRatios reduces engine-counter deltas to the cache tiers' hit
// ratios: memory hits over lookups, alias hits over disk lookups, and
// structural hits over the lookups that got past the alias tier.
func cacheRatios(before, after map[string]int64) (mem, alias, structHit float64) {
	d := func(k string) float64 { return float64(after[k] - before[k]) }
	hit, miss, al, st := d("engine.cache.hit"), d("engine.cache.miss"), d("engine.store.hit.alias"), d("engine.store.hit.struct")
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	return ratio(hit, hit+miss), ratio(al, miss), ratio(st, miss-al)
}

func runServe(cfg *Config, r *Result) (err error) {
	d := cfg.Daemon
	if d == nil {
		bin, err := buildBivd(cfg.Root)
		if err != nil {
			return err
		}
		d = &execDaemon{bin: bin}
	}
	defer func() {
		if serr := d.Stop(); err == nil {
			err = serr
		}
	}()
	base, err := cfg.scratchDir("serve-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	mix := newServeMix(cfg.Seed)
	c := newServeClient()
	defer c.close()
	oracle := &serveOracle{an: beyondiv.NewAnalyzer(beyondiv.Options{Parallel: 1}), refs: map[string]*ref{}}

	// Warm-up: every hot source through each endpoint that will ask for
	// it, and every paper program through /v1/optimize.
	var warm []*serveReq
	for _, p := range mix.hot {
		v := explainVar(p)
		warm = append(warm,
			&serveReq{kind: "hot", path: "/v1/analyze", sources: []string{p.Source}, body: jsonBody(map[string]any{"source": p.Source})},
			&serveReq{kind: "explain", path: "/v1/explain", sources: []string{p.Source}, varName: v,
				body: jsonBody(map[string]any{"source": p.Source, "var": v, "deps": true})})
	}
	for _, p := range mix.paper {
		warm = append(warm, &serveReq{kind: "optimize", path: "/v1/optimize", sources: []string{p.Source}, body: jsonBody(map[string]any{"source": p.Source})})
	}
	// startWarm starts a daemon on cacheDir ("" for none), waits until it
	// is healthy and sends it the warm-up requests.
	startWarm := func(cacheDir string) error {
		var err error
		if c.addr, err = d.Start(cacheDir); err != nil {
			return err
		}
		if err := c.waitHealthy(); err != nil {
			return err
		}
		for _, rq := range warm {
			if rp := c.do(rq, time.Now()); rp.err != nil || rp.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: %v (HTTP %d)", rq.kind, rp.err, rp.status)
			}
		}
		return nil
	}
	// Set-up time is the median of setupStarts start-ups of a daemon
	// without a disk store. With one, writing the warm-up's entries was
	// two thirds of a set-up, mostly system time in file calls, and the
	// median moved from run to run between 65 and 105 ms on the reference
	// host; without one it stayed between 27 and 30 ms. The store's costs
	// show in the load phases and the warm restart instead. Each start-up
	// is calibrated by a calibration run after it, as the library
	// workloads' set-ups are.
	var setups, setupK []float64
	for i := 0; i < setupStarts; i++ {
		t0 := time.Now()
		if err := startWarm(""); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := d.Stop(); err != nil {
			return err
		}
		setupK = append(setupK, calScale(calibrate()))
	}
	dir := filepath.Join(base, "store")
	if err := startWarm(dir); err != nil {
		return err
	}

	secs := func(f float64) time.Duration { return time.Duration(f * cfg.Seconds * float64(time.Second)) }
	warmReqs := mix.take(int(maxRate * secs(shareWarm).Seconds()))
	openReqs := mix.take(int(openRate * secs(shareOpen).Seconds()))
	clientReqs := mix.take(int(maxRate * secs(shareClient).Seconds()))
	satReqs := mix.take(int(maxRate * secs(shareSat).Seconds()))

	// The client needs less than a CPU; with one P its scheduler does not
	// spin on the CPUs the daemon's workers need.
	procs := runtime.GOMAXPROCS(1)
	// Before timing, the mix itself runs until the result cache holds
	// cold entries and the daemon's heap has reached its working size.
	warmed, _ := c.closedLoop(warmReqs, secs(shareWarm), serveConns)
	c0, err := c.counters()
	if err != nil {
		return err
	}
	open := c.openLoop(openReqs, openRate)
	rss := sampleRSS(d.PID())
	client, clientLat, clientTput, clientK := c.clientPhase(clientReqs, secs(shareClient))
	sat, satDur := c.closedLoop(satReqs, secs(shareSat), serveConns)
	rssMB := rss.finish()
	runtime.GOMAXPROCS(procs)
	c1, err := c.counters()
	if err != nil {
		return err
	}
	peak, err := peakRSSMB(d.PID())
	if err != nil {
		return err
	}

	// Warm restart on the same store, replaying the open and client
	// phases' cold sources; each answer must match its first one byte for
	// byte apart from elapsed_us.
	t0 := time.Now()
	if err := d.Stop(); err != nil {
		return err
	}
	drain := time.Since(t0)
	t0 = time.Now()
	if c.addr, err = d.Start(dir); err != nil {
		return err
	}
	if err := c.waitHealthy(); err != nil {
		return err
	}
	start := time.Since(t0)
	var first []reply
	var replayReqs []*serveReq
	for _, rp := range slices.Concat(open, client) {
		if rp.req.kind == "cold" && rp.status == http.StatusOK && len(replayReqs) < replayMax {
			first = append(first, rp)
			replayReqs = append(replayReqs, rp.req)
		}
	}
	c2, err := c.counters()
	if err != nil {
		return err
	}
	replay, replayDur := c.closedLoop(replayReqs, 0, serveConns)
	c3, err := c.counters()
	if err != nil {
		return err
	}
	if err := d.Stop(); err != nil {
		return err
	}

	all := slices.Concat(warmed, open, client, sat)
	shed := 0
	for _, rp := range all {
		r.Attempted++
		if rp.status == http.StatusTooManyRequests {
			shed++
		}
		if err := oracle.check(rp); err != nil {
			r.fail("%v", err)
		}
	}
	for i, rp := range replay {
		r.Attempted++
		switch {
		case rp.err != nil || rp.status != http.StatusOK:
			r.fail("replay: %v (HTTP %d)", rp.err, rp.status)
		case !bytes.Equal(elapsedRE.ReplaceAll(rp.body, nil), elapsedRE.ReplaceAll(first[i].body, nil)):
			r.fail("replay: body differs from the first answer")
		}
	}

	mem, alias, structHit := cacheRatios(c0, c1)
	_, replayAlias, _ := cacheRatios(c2, c3)
	openMS := latMS(open)
	p99 := func(ms []float64) float64 { return quantile(ms, 0.99) }
	var lateMS []float64
	for _, rp := range open {
		lateMS = append(lateMS, float64(rp.late.Nanoseconds())/1e6)
	}
	rttByKind := map[string][]float64{}
	for _, rp := range client {
		rttByKind[rp.req.kind] = append(rttByKind[rp.req.kind], us(rp.rtt))
	}
	for kind, rtt := range rttByKind {
		r.info("rtt."+kind+".p50_us", "us", median(rtt), len(rtt))
		r.info("rtt."+kind+".p99_us", "us", p99(rtt), len(rtt))
	}
	hotRTT := rttByKind["hot"]
	r.info("peak_rss_mb", "MB", peak, 1)
	r.info("saturation.throughput_per_s", "1/s", float64(len(sat))/satDur.Seconds(), len(sat))
	r.info(fmt.Sprintf("rps%d.p50_ms", int(openRate)), "ms", median(openMS), len(openMS))
	r.info(fmt.Sprintf("rps%d.p99_ms", int(openRate)), "ms", p99(openMS), len(openMS))
	r.info("warm_replay_s", "s", replayDur.Seconds(), len(replay))
	r.info("serve.hot_rtt_us", "us", median(hotRTT), len(hotRTT))
	r.info("serve.shed_frac", "ratio", float64(shed)/float64(max(len(all), 1)), len(all))
	r.info("serve.start_ms", "ms", float64(start.Nanoseconds())/1e6, 1)
	r.info("serve.drain_ms", "ms", float64(drain.Nanoseconds())/1e6, 1)
	r.info("serve.gen_late_p99_ms", "ms", p99(lateMS), len(lateMS))
	r.info("cache.hit_ratio", "ratio", mem, len(all))
	r.info("store.alias_hit_ratio", "ratio", alias, len(all))
	r.info("store.struct_hit_ratio", "ratio", structHit, len(all))
	r.info("replay.alias_hit_ratio", "ratio", replayAlias, len(replay))

	if !cfg.Trace {
		// Like the library workloads' passes, each window gives one
		// calibrated value and the metric is their median.
		var p50s, p99s, kInv []float64
		for i, ms := range clientLat {
			p50s = append(p50s, median(ms))
			p99s = append(p99s, p99(ms))
			kInv = append(kInv, 1/clientK[i])
		}
		r.timing("latency_p50_ms", p50s, clientK, len(client))
		r.timing("latency_p99_ms", p99s, clientK, len(client))
		r.timing("throughput_per_s", clientTput, kInv, len(client))
		r.timing("setup_s", setups, setupK, len(setups))
		r.info("calibration_ms", "ms", calNominalMS/median(clientK), len(clientK))
		r.set("rss_mb", median(rssMB), len(rssMB))
		return nil
	}
	lr := &layerRun{cfg: cfg, tr: newTracer(spanLimit), valNS: map[string][]float64{},
		cache: mem, alias: alias, structHit: structHit}
	return traceServe(lr, r, all, oracle)
}

// traceServe times the library layers on the serve workload's programs:
// every distinct analyzed source through the traced engine, and every
// optimized paper program through traced validated Optimize.
func traceServe(lr *layerRun, r *Result, replies []reply, oracle *serveOracle) error {
	seen := map[string]bool{}
	optSeen := map[string]bool{}
	var analyzed, optimized []Program
	for _, rp := range replies {
		for _, src := range rp.req.sources {
			if rp.req.kind == "optimize" {
				if !optSeen[src] {
					optSeen[src] = true
					optimized = append(optimized, Program{Name: fmt.Sprintf("optimize/%d", len(optimized)), Source: src})
				}
				continue
			}
			if !seen[src] {
				seen[src] = true
				analyzed = append(analyzed, Program{Name: fmt.Sprintf("%s/%d", rp.req.kind, len(analyzed)), Source: src})
			}
		}
	}
	lr.progs = analyzed
	lr.analysis, lr.opt = newOpAgg(false), newOpAgg(true)
	check := func(p Program, out *outcome) error {
		rf, err := oracle.get(p.Source)
		if err != nil {
			return err
		}
		deps := ""
		if out.deps != nil {
			deps = out.deps.Report()
		}
		if out.iv.Report() != rf.class || deps != rf.deps {
			return fmt.Errorf("%s: traced engine report differs from the facade's", p.Name)
		}
		return nil
	}
	// One pass each; the checks here compare the traced engine with the
	// facade and are not part of the workload's attempts.
	scratch := &Result{Metrics: map[string]Metric{}, Info: map[string]Metric{}}
	eng := tracedEngine(lr.tr, 0, false, nil)
	g0 := readGC()
	ls := loop{progs: analyzed, op: engineOp(eng, false), check: check, tr: lr.tr, agg: lr.analysis}.run(scratch)
	g1 := readGC()
	lr.gc = gcSample{g1.gcCPU - g0.gcCPU, g1.totalCPU - g0.totalCPU, g1.cycles - g0.cycles}
	lr.gcOps = len(ls.lat)
	opt := loop{progs: optimized, op: engineOp(eng, true), check: func(Program, *outcome) error { return nil },
		tr: lr.tr, agg: lr.opt, keep: true}.run(scratch)
	if scratch.Failed > 0 {
		return fmt.Errorf("traced library pass: %v", scratch.Failures)
	}
	lr.keepOptimized(optimized, opt)
	return lr.finish(r)
}
