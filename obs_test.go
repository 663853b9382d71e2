// Telemetry integration tests: the span tree and counters a full
// analysis records are deterministic, the provenance log explains every
// classified variable, and the process-metrics stack (registry, flight
// recorder, debug HTTP server) works wired together the way the
// commands wire it.
package beyondiv

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"beyondiv/internal/depend"
	"beyondiv/internal/guard"
	"beyondiv/internal/obs"
	"beyondiv/internal/obs/debugserv"
	"beyondiv/internal/obs/metrics"
	"beyondiv/internal/paper"
)

const quickstartProgram = `
j = 0
L1: for i = 1 to n {
    j = j + i
    a[j] = a[j - 1]
}
`

// TestTelemetryGolden pins the deterministic recording of the
// quickstart program: one span per pipeline phase, nested, plus the
// counter registry. Timings are suppressed (NewWithClock(nil, nil))
// so the output is exact.
func TestTelemetryGolden(t *testing.T) {
	rec := obs.NewWithClock(nil, nil)
	if _, err := AnalyzeWith(quickstartProgram, Options{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rec.WriteText(&buf, false); err != nil {
		t.Fatal(err)
	}
	want := `== phases ==
analyze
  scan
  parse
  cfgbuild
  ssa
    dom
    place-phis
    rename
    cleanup
  loops
  sccp
  iv
    loop L1
  depend
== counters ==
cfg.blocks                                          6
cfg.values                                         21
depend.accesses                                     2
depend.pairs.tested                                 2
depend.test.assumed.dependent                       2
iv.matrix.solves                                    2
iv.scr.linear                                       1
iv.scr.polynomial                                   1
iv.tripcounts.derived                               1
loops.found                                         1
parse.stmts                                         2
scan.tokens                                        33
sccp.constants                                      4
ssa.phis                                            2
ssa.values                                         13
`
	if got := buf.String(); got != want {
		t.Errorf("telemetry recording drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExplainCoverage: every named classified variable of every corpus
// program has a provenance chain that names the rule that produced its
// classification.
func TestExplainCoverage(t *testing.T) {
	for _, p := range paper.Corpus {
		p := p
		t.Run(p.ID, func(t *testing.T) {
			prog, err := AnalyzeWith(p.Source, Options{SkipDependences: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range prog.Loops.InnerToOuter() {
				for v := range prog.IV.LoopClassifications(l) {
					if v.Name == "" {
						continue
					}
					out := prog.IV.Explain(l, v)
					if out == "" {
						t.Errorf("%s/%s: empty explanation", l.Label, v)
						continue
					}
					if !strings.Contains(out, "rule:") {
						t.Errorf("%s/%s: explanation names no rule:\n%s", l.Label, v, out)
					}
				}
			}
		})
	}
}

// TestExplainDeps: every dependence edge of the §6 example programs has
// a provenance rendering naming its decision procedure's rule.
func TestExplainDeps(t *testing.T) {
	for _, id := range []string{"E12", "E13", "E14", "E15"} {
		p := paper.ByID(id)
		if p == nil {
			t.Fatalf("no corpus entry %s", id)
		}
		t.Run(id, func(t *testing.T) {
			prog, err := Analyze(p.Source)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range prog.Deps.Deps {
				out := prog.ExplainDep(d)
				if !strings.Contains(out, "rule:") {
					t.Errorf("dependence %s: no rule in provenance:\n%s", d, out)
				}
			}
		})
	}
}

// TestExplainVarFacade: the string-keyed facade resolves both base
// names and exact SSA names.
func TestExplainVarFacade(t *testing.T) {
	prog, err := AnalyzeWith(quickstartProgram, Options{SkipDependences: true})
	if err != nil {
		t.Fatal(err)
	}
	byBase := prog.Explain("j")
	if byBase == "" || !strings.Contains(byBase, "rule:") {
		t.Fatalf("Explain(j) = %q", byBase)
	}
	if prog.Explain("definitely-not-a-var") != "" {
		t.Error("Explain of unknown variable should be empty")
	}
}

// TestDecisionLogCoverage: the recorder's decision log holds one event
// per SCR classification, so the counters and the log agree.
func TestDecisionLogCoverage(t *testing.T) {
	rec := obs.New()
	if _, err := AnalyzeWith(quickstartProgram, Options{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	scrs := rec.CounterTotal("iv.scr.")
	var ivDecisions int64
	for _, d := range rec.Decisions() {
		if !strings.Contains(d.Subject, "->") && !strings.Contains(d.Subject, " vs ") {
			ivDecisions++
		}
	}
	if ivDecisions < scrs {
		t.Errorf("iv decisions %d < SCR counter total %d: classifications missing from the log", ivDecisions, scrs)
	}
}

// TestDependOptionsObs: the dependence tester alone also records.
func TestDependOptionsObs(t *testing.T) {
	prog, err := AnalyzeWith(quickstartProgram, Options{SkipDependences: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	depend.Analyze(prog.IV, depend.Options{Obs: rec})
	if rec.Counter("depend.pairs.tested") == 0 {
		t.Error("dependence run recorded no tested pairs")
	}
}

// TestDebugServEndToEnd wires the stack exactly like a command with
// -debug-addr: a cached analyzer feeding a registry and flight
// recorder, a batch over the paper corpus plus one fault-injected
// run, and the debug server scraped over real HTTP. /metrics must
// show per-phase percentiles and cache counters in both formats, and
// /lastruns must contain the fault run with its phase and stack.
func TestDebugServEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	fl := metrics.NewFlight(64, 16)
	opts := Options{Metrics: reg, Flight: fl, CacheEntries: 64, Jobs: 2}

	var srcs []string
	for _, p := range paper.Corpus {
		srcs = append(srcs, p.Source)
	}
	an := NewAnalyzer(opts)
	for _, r := range an.AnalyzeAll(srcs) {
		if r.Err != nil {
			t.Fatalf("%d: %v", r.Index, r.Err)
		}
	}
	for _, r := range an.AnalyzeAll(srcs) { // all cache hits
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	fopts := opts
	fopts.CacheEntries = 0
	fopts.Limits.Inject = guard.PanicIn("iv")
	if _, err := NewAnalyzer(fopts).Analyze(srcs[0]); err == nil {
		t.Fatal("fault injection did not fail the run")
	}

	srv, err := debugserv.Serve("127.0.0.1:0", reg, fl)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	prom := get("/metrics")
	for _, want := range []string{
		"biv_phase_parse_p50", "biv_phase_iv_p99", "biv_phase_analyze_count",
		"biv_engine_cache_hit", "biv_engine_cache_miss", "biv_engine_fault_iv 1",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var snap metrics.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics?format=json")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["engine.cache.hit"] < int64(len(srcs)) {
		t.Errorf("cache hits = %d, want >= %d", snap.Counters["engine.cache.hit"], len(srcs))
	}
	for _, phase := range []string{"parse", "ssa", "iv", "depend", "analyze"} {
		h := snap.Hists["phase."+phase]
		if h.Count == 0 || h.P99 < h.P50 || h.P50 <= 0 {
			t.Errorf("phase.%s histogram: count=%d p50=%d p99=%d", phase, h.Count, h.P50, h.P99)
		}
	}

	var runs struct {
		Recent []metrics.Run `json:"recent"`
		Failed []metrics.Run `json:"failed"`
	}
	if err := json.Unmarshal([]byte(get("/lastruns")), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs.Failed) != 1 {
		t.Fatalf("failed ring has %d runs, want 1", len(runs.Failed))
	}
	f := runs.Failed[0]
	if !f.Fault || f.Phase != "iv" || f.Stack == "" {
		t.Errorf("fault run = phase=%q fault=%v stack=%d bytes", f.Phase, f.Fault, len(f.Stack))
	}
	cached := 0
	for _, r := range runs.Recent {
		if r.Cached {
			cached++
		}
	}
	if cached < len(srcs) {
		t.Errorf("flight shows %d cached runs, want >= %d", cached, len(srcs))
	}
}
