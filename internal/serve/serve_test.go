package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"beyondiv"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/progen"
)

const testSrc = `j = 0
L1: for i = 1 to n {
    j = j + i
    a[j] = a[j - 1]
}`

// startServer runs a Server behind a real debugserv listener — tests
// exercise the full HTTP stack, mux patterns included.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ds, err := debugserv.ServeWith("127.0.0.1:0", srv.Registry(), nil, debugserv.Options{
		Health: srv.Health,
		Routes: srv.Register,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return srv, "http://" + ds.Addr()
}

// post sends one request and decodes the response body into out.
func post(t *testing.T, base, path string, req *request, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding response: %v", path, err)
		}
	}
	return resp.StatusCode, resp.Header
}

func TestEndpointsHappyPath(t *testing.T) {
	srv, base := startServer(t, Config{Options: beyondiv.Options{CacheEntries: 16}})

	var ar analyzeResponse
	if code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, &ar); code != 200 {
		t.Fatalf("analyze status = %d", code)
	}
	if !strings.Contains(ar.Classification, "loop L1") || !strings.Contains(ar.Classification, "j") {
		t.Errorf("classification report missing loop findings:\n%s", ar.Classification)
	}

	var or optimizeResponse
	if code, _ := post(t, base, "/v1/optimize", &request{Source: testSrc}, &or); code != 200 {
		t.Fatalf("optimize status = %d", code)
	}
	if or.Rounds < 1 {
		t.Errorf("optimize rounds = %d, want >= 1", or.Rounds)
	}

	var er explainResponse
	if code, _ := post(t, base, "/v1/explain", &request{Source: testSrc, Var: "j", Deps: true}, &er); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	if er.Explain == "" || er.Deps == "" {
		t.Errorf("explain = %+v, want both provenance sections", er)
	}

	var br batchResponse
	if code, _ := post(t, base, "/v1/batch", &request{Sources: []string{testSrc, testSrc}}, &br); code != 200 {
		t.Fatalf("batch status = %d", code)
	}
	if len(br.Results) != 2 || br.Errors != 0 {
		t.Fatalf("batch = %+v", br)
	}

	reg := srv.Registry()
	if reg.Counter("serve.ok") != 4 || reg.Counter("serve.req") != 4 {
		t.Errorf("counters: ok=%d req=%d, want 4/4", reg.Counter("serve.ok"), reg.Counter("serve.req"))
	}
}

// TestErrorTaxonomy: every failure class maps to its documented status
// and structured kind, and everything that reached the engine carries
// phase attribution.
func TestErrorTaxonomy(t *testing.T) {
	_, base := startServer(t, Config{})

	cases := []struct {
		name      string
		path      string
		req       *request
		status    int
		kind      string
		wantPhase bool
	}{
		{"missing source", "/v1/analyze", &request{}, 400, "bad_request", false},
		{"source on batch", "/v1/batch", &request{Source: testSrc}, 400, "bad_request", false},
		{"empty batch", "/v1/batch", &request{}, 400, "bad_request", false},
		{"explain without query", "/v1/explain", &request{Source: testSrc}, 400, "bad_request", false},
		{"inject not enabled", "/v1/analyze", &request{Source: testSrc, Inject: "sccp"}, 400, "bad_request", false},
		{"parse error", "/v1/analyze", &request{Source: "for { nonsense"}, 422, "input", true},
		{"guard trip", "/v1/analyze", &request{Source: progen.NestedLoops(80)}, 422, "limit", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var eb errorBody
			code, _ := post(t, base, tc.path, tc.req, &eb)
			if code != tc.status || eb.Kind != tc.kind {
				t.Fatalf("got %d/%q, want %d/%q (%+v)", code, eb.Kind, tc.status, tc.kind, eb)
			}
			if tc.wantPhase && eb.Phase == "" {
				t.Errorf("error lost phase attribution: %+v", eb)
			}
		})
	}

	// Unknown body fields are rejected, not silently dropped. The
	// intra-run width is the operator's (-parallel), not a body field.
	for _, body := range []string{
		`{"source": "x = 1", "bogus": true}`,
		`{"source": "x = 1", "parallel": 2}`,
	} {
		resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 400 || eb.Kind != "bad_request" {
			t.Errorf("unknown field %s: got %d/%q (decode err %v), want 400/bad_request", body, resp.StatusCode, eb.Kind, err)
		}
	}

	// Wrong method never reaches a handler.
	resp, err := http.Get(base + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestInjectedFault: with AllowInject on, the named phase panics, the
// panic is contained into a structured 500 naming the phase — and the
// injected fault does NOT poison the source for legitimate traffic.
func TestInjectedFault(t *testing.T) {
	srv, base := startServer(t, Config{AllowInject: true, Options: beyondiv.Options{CacheEntries: 16}})

	var eb errorBody
	code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc, Inject: "sccp"}, &eb)
	if code != 500 || eb.Kind != "fault" || eb.Phase != "sccp" {
		t.Fatalf("injected fault = %d %+v, want 500/fault/sccp", code, eb)
	}
	if srv.poison.len() != 0 {
		t.Fatalf("injected fault poisoned the source for legitimate traffic")
	}
	// The same source analyzes fine without injection.
	if code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, nil); code != 200 {
		t.Fatalf("post-inject analyze status = %d, want 200", code)
	}
}

// TestPoisonCacheAndEviction: a genuinely faulting source is remembered
// by hash — the replay is answered from the poison cache (same status,
// same phase, poisoned: true, no analysis) — and the LRU evicts the
// least-recently-hit crasher at capacity.
func TestPoisonCacheAndEviction(t *testing.T) {
	// Every analysis on this server faults in iv: the shared limits
	// carry a PanicIn hook, standing in for an analyzer bug.
	srv, base := startServer(t, Config{
		PoisonCapacity: 2,
		Options:        beyondiv.Options{Limits: guard.Limits{Inject: guard.PanicIn("iv")}},
	})

	srcs := []string{testSrc + "\n// A", testSrc + "\n// B", testSrc + "\n// C"}
	for i, src := range srcs[:2] {
		var eb errorBody
		code, _ := post(t, base, "/v1/analyze", &request{Source: src}, &eb)
		if code != 500 || eb.Kind != "fault" || eb.Poisoned {
			t.Fatalf("fresh fault %d = %d %+v", i, code, eb)
		}
	}
	// Replay of B: served from the poison cache with the phase intact.
	var replay errorBody
	code, _ := post(t, base, "/v1/analyze", &request{Source: srcs[1]}, &replay)
	if code != 500 || !replay.Poisoned || replay.Phase != "iv" {
		t.Fatalf("replay = %d %+v, want poisoned 500 with phase iv", code, replay)
	}
	if srv.Registry().Counter("serve.poison.hit") != 1 {
		t.Errorf("serve.poison.hit = %d, want 1", srv.Registry().Counter("serve.poison.hit"))
	}
	// C faults; the cache is full, so A (least recently hit) is evicted.
	post(t, base, "/v1/analyze", &request{Source: srcs[2]}, &errorBody{})
	if srv.poison.len() != 2 {
		t.Fatalf("poison len = %d, want 2", srv.poison.len())
	}
	var fresh errorBody
	code, _ = post(t, base, "/v1/analyze", &request{Source: srcs[0]}, &fresh)
	if code != 500 || fresh.Poisoned {
		t.Fatalf("evicted source must re-analyze (fresh fault), got %d %+v", code, fresh)
	}
	// A's re-fault re-poisoned it, evicting B in turn: the cache now
	// holds the two most recently faulting sources, A and C.
	if srv.poison.len() != 2 {
		t.Fatalf("poison len after re-fault = %d, want 2", srv.poison.len())
	}
	for _, src := range []string{srcs[0], srcs[2]} {
		if _, ok := srv.poison.lookup(keyOf("analyze", srv.optFP, src)); !ok {
			t.Errorf("source %q fell out of the poison cache", src[len(src)-1:])
		}
	}
}

// TestPoisonScopedToEndpoint: poison keys bind the endpoint (and the
// analyzer options fingerprint), so a source that faults only under
// the transform pipeline poisons /v1/optimize without condemning
// /v1/analyze for the same text. Regression test: keys used to be
// sha256(source) alone, and one optimize fault made every endpoint
// serve the source a cached 500.
func TestPoisonScopedToEndpoint(t *testing.T) {
	// Shared limits fault in the dce transform pass: optimize crashes,
	// plain analysis never reaches the phase.
	srv, base := startServer(t, Config{
		Options: beyondiv.Options{Limits: guard.Limits{Inject: guard.PanicIn("xform.dce")}},
	})

	var eb errorBody
	code, _ := post(t, base, "/v1/optimize", &request{Source: testSrc}, &eb)
	if code != 500 || eb.Kind != "fault" || eb.Poisoned {
		t.Fatalf("optimize fault = %d %+v, want fresh 500 fault", code, eb)
	}
	// The same source must still analyze: the fault belongs to the
	// optimize key, not to the source text.
	var ar analyzeResponse
	if code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, &ar); code != 200 {
		t.Fatalf("analyze after optimize fault = %d, want 200", code)
	}
	if ar.Classification == "" {
		t.Fatal("analyze after optimize fault returned no classification")
	}
	// Replayed optimize is served from the poison cache.
	var replay errorBody
	code, _ = post(t, base, "/v1/optimize", &request{Source: testSrc}, &replay)
	if code != 500 || !replay.Poisoned || replay.Phase != "xform.dce" {
		t.Fatalf("optimize replay = %d %+v, want poisoned 500 in xform.dce", code, replay)
	}
	if got := srv.Registry().Counter("serve.poison.hit"); got != 1 {
		t.Errorf("serve.poison.hit = %d, want 1", got)
	}
}

// TestAdmissionShed: with every worker slot held and the queue full,
// the next request is shed immediately — 429, Retry-After, kind shed —
// instead of waiting on a backlog it would never clear.
func TestAdmissionShed(t *testing.T) {
	gate := make(chan struct{})
	srv, base := startServer(t, Config{
		MaxInFlight: 1,
		MaxQueue:    1,
		Options: beyondiv.Options{Limits: guard.Limits{Inject: func(phase string) {
			if phase == "sccp" {
				<-gate // hold the worker in-phase
			}
		}}},
	})

	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, nil)
			done <- code
		}()
	}
	waitFor(t, func() bool {
		return srv.adm.inflight.Load() == 1 && srv.adm.queued.Load() == 1
	}, "one in flight, one queued")

	var eb errorBody
	code, hdr := post(t, base, "/v1/analyze", &request{Source: testSrc}, &eb)
	if code != 429 || eb.Kind != "shed" || hdr.Get("Retry-After") == "" {
		t.Fatalf("overload = %d %+v (Retry-After %q), want 429/shed", code, eb, hdr.Get("Retry-After"))
	}
	if srv.Registry().Counter("serve.shed") != 1 {
		t.Errorf("serve.shed = %d, want 1", srv.Registry().Counter("serve.shed"))
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if code := <-done; code != 200 {
			t.Errorf("held request %d finished with %d, want 200", i, code)
		}
	}
}

// TestDrainWhileInFlight: SIGTERM semantics end to end — draining
// rejects new work and queued waiters with 503, /healthz flips to 503
// draining, the in-flight request still completes with 200 (no dropped
// responses), Drain reports clean, and no goroutines leak.
func TestDrainWhileInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := make(chan struct{})
	srv, base := startServer(t, Config{
		MaxInFlight: 1,
		MaxQueue:    2,
		Options: beyondiv.Options{Limits: guard.Limits{Inject: func(phase string) {
			if phase == "sccp" {
				<-gate
			}
		}}},
	})

	// Admit the first request before sending the second, so their roles
	// (in-flight vs queued) are deterministic.
	inflight := make(chan int, 1)
	go func() {
		code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, nil)
		inflight <- code
	}()
	waitFor(t, func() bool { return srv.adm.inflight.Load() == 1 }, "one in flight")
	queued := make(chan errorBody, 1)
	go func() {
		var eb errorBody
		post(t, base, "/v1/analyze", &request{Source: testSrc}, &eb)
		queued <- eb
	}()
	waitFor(t, func() bool { return srv.adm.queued.Load() == 1 }, "one queued")

	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	waitFor(t, srv.Draining, "draining flag")

	// The queued waiter is turned away so drain cannot starve.
	if eb := <-queued; eb.Kind != "draining" {
		t.Fatalf("queued request during drain = %+v, want kind draining", eb)
	}
	// New work is rejected at the door...
	var eb errorBody
	if code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc}, &eb); code != 503 || eb.Kind != "draining" {
		t.Fatalf("new request during drain = %d %+v", code, eb)
	}
	// ...and /healthz tells the load balancer.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h debugserv.Health
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != 503 || h.State != "draining" {
		t.Fatalf("/healthz during drain = %d %+v", resp.StatusCode, h)
	}

	close(gate)
	if code := <-inflight; code != 200 {
		t.Fatalf("in-flight request dropped during drain: status %d", code)
	}
	if !<-drained {
		t.Fatal("Drain() = false, want clean drain")
	}

	// Goroutine hygiene: after the drain settles, nothing we started is
	// still running (a few HTTP keep-alive handlers may linger briefly).
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+3 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+3 {
		t.Errorf("goroutines: %d before, %d after drain — leak", before, n)
	}
}

// TestDeadlineMidPhase: a request whose deadline expires while a phase
// runs comes back 503 kind deadline with that phase named — the engine's
// cooperative cancellation surfacing through the full HTTP stack.
func TestDeadlineMidPhase(t *testing.T) {
	_, base := startServer(t, Config{
		Options: beyondiv.Options{Limits: guard.Limits{Inject: func(phase string) {
			if phase == "sccp" {
				time.Sleep(80 * time.Millisecond) // outlive the request deadline in-phase
			}
		}}},
	})
	var eb errorBody
	code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc, TimeoutMS: 15}, &eb)
	if code != 503 || eb.Kind != "deadline" || eb.Phase != "sccp" {
		t.Fatalf("mid-phase deadline = %d %+v, want 503/deadline/sccp", code, eb)
	}
}

// TestBatchPartialFailure: one bad source inside a batch fails alone,
// with its own kind and phase; the rest of the batch completes.
func TestBatchPartialFailure(t *testing.T) {
	_, base := startServer(t, Config{})
	var br batchResponse
	code, _ := post(t, base, "/v1/batch", &request{Sources: []string{testSrc, "for { broken"}}, &br)
	if code != 200 || br.Errors != 1 {
		t.Fatalf("batch = %d %+v", code, br)
	}
	if br.Results[0].Error != "" || br.Results[0].Classification == "" {
		t.Errorf("good source = %+v", br.Results[0])
	}
	if bad := br.Results[1]; bad.Kind != "input" || bad.Phase == "" {
		t.Errorf("bad source = %+v, want kind input with phase", bad)
	}
}

// TestTimeoutCap: a body asking for an hour is capped at MaxTimeout.
func TestTimeoutCap(t *testing.T) {
	_, base := startServer(t, Config{
		MaxTimeout: 20 * time.Millisecond,
		Options: beyondiv.Options{Limits: guard.Limits{Inject: func(phase string) {
			if phase == "sccp" {
				time.Sleep(100 * time.Millisecond)
			}
		}}},
	})
	var eb errorBody
	code, _ := post(t, base, "/v1/analyze", &request{Source: testSrc, TimeoutMS: 3_600_000}, &eb)
	if code != 503 || eb.Kind != "deadline" {
		t.Fatalf("capped timeout = %d %+v, want 503/deadline", code, eb)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestChaosLoadBenchArtifact is the in-process chaos run: a real server
// under the full hostile mix — injected faults included — must keep
// answering (successes > 0), attribute every 5xx, shed rather than
// wedge, and drain clean afterwards with no goroutine leak. With
// BENCH_JSON set it writes the run's report (the BENCH_serve.json
// artifact `make bench-serve` collects).
func TestChaosLoadBenchArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short")
	}
	before := runtime.NumGoroutine()
	srv := New(Config{
		MaxInFlight: 4,
		MaxQueue:    8,
		AllowInject: true,
		Options:     beyondiv.Options{CacheEntries: 256, Jobs: 2},
	})
	ds, err := debugserv.ServeWith("127.0.0.1:0", srv.Registry(), nil, debugserv.Options{
		Health:      srv.Health,
		Routes:      srv.Register,
		ReadTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	dur := 1500 * time.Millisecond
	if os.Getenv("BENCH_JSON") == "" {
		dur = 600 * time.Millisecond
	}
	report, err := RunLoad(LoadConfig{
		Addr:        ds.Addr(),
		Duration:    dur,
		Concurrency: 8,
		Inject:      "sccp",
		Seed:        42,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos: %d requests (%.0f/s), %d ok, %d shed, p50 %dus p99 %dus, kinds %v",
		report.Requests, report.Throughput, report.OK, report.Shed,
		report.P50US, report.P99US, report.ByKind)

	if report.OK == 0 {
		t.Fatalf("no successful requests under chaos: %+v", report)
	}
	if report.Unexplained > 0 {
		t.Fatalf("%d unexplained 5xx responses: %+v", report.Unexplained, report)
	}
	if report.ByKind["fault"] == 0 {
		t.Errorf("injected faults never surfaced as attributed 500s: %v", report.ByKind)
	}

	// Clean shutdown after the storm: drain, close, no leaked goroutines.
	if !srv.Drain(5 * time.Second) {
		t.Error("server failed to drain clean after chaos run")
	}
	ds.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+4 {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+4 {
		t.Errorf("goroutines: %d before chaos, %d after drain — leak", before, n)
	}

	if path := os.Getenv("BENCH_JSON"); path != "" {
		if err := report.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("report written to %s", path)
	}
}
