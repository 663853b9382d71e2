GO ?= go

.PHONY: check build fmt vet test test-race bench-module bench bench-par bench-restructure bench-serve bench-incremental bench-smoke repro fuzz-smoke clean

# The full gate: what CI (and every PR) must pass.
check: build fmt vet test-race bench-module

# gofmt as a check: fails listing any file that is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The benchmark is a separate module (bench/go.mod, replacing beyondiv
# with this checkout) that calls engine, iv, serve and facade APIs
# directly; the root ./... never builds it, so vet and test it here.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# Runs every benchmark, then re-measures the engine's headline numbers
# (cold vs warm cache, sequential vs 4-worker batch) into
# BENCH_engine.json, the dense-ID hot-path deltas (cold ns/op and
# allocs/op against the pre-rework baseline) into BENCH_hotpath.json,
# and the transformation layer's cost profile (Optimize vs Analyze,
# validation overhead, clone vs frontend rebuild) into BENCH_xform.json,
# and the process-metrics tier's cost (identical analysis loops with
# and without a registry and flight recorder, plus a snapshot of what
# the instrumented loop recorded) into BENCH_obs.json.
bench: bench-serve bench-incremental bench-par bench-restructure
	$(GO) test -bench=. -benchmem .
	BENCH_JSON=BENCH_engine.json $(GO) test -run '^TestEngineBenchArtifact$$' -v .
	BENCH_JSON=BENCH_hotpath.json $(GO) test -run '^TestHotpathBenchArtifact$$' -v .
	BENCH_JSON=BENCH_xform.json $(GO) test -run '^TestXformBenchArtifact$$' -v .
	BENCH_JSON=BENCH_obs.json $(GO) test -count=1 -run '^TestObsBenchArtifact$$' -v .

# Intra-run parallel tier: one large analysis sequential vs Parallel=4,
# plus the small-program no-regression guard, with gomaxprocs/num_cpu
# recorded into BENCH_par.json. Speedup assertions only bind on
# multi-CPU hosts; the artifact is honest either way.
bench-par:
	BENCH_JSON=BENCH_par.json $(GO) test -count=1 -run '^TestParBenchArtifact$$' -v .

# Restructuring payoff: the relaxation stencil and the interchanged
# column stencil executed sequentially vs chunked across 4 workers,
# with the pipeline first asserted to prove the marks being exploited.
# Timings and speedups land in BENCH_restructure.json; the speedup
# floor only binds on 4+ CPU hosts (skipped, never faked, on fewer).
bench-restructure:
	BENCH_JSON=BENCH_restructure.json $(GO) test -count=1 -run '^TestRestructureBenchArtifact$$' -v .

# Persistent-store scenarios across simulated process restarts: cold
# corpus analysis vs a 1-of-N-file edit vs a fully warm restart, with
# the store-counter invariants (one re-analysis on edit, zero on warm)
# asserted and the timings written to BENCH_incremental.json.
bench-incremental:
	BENCH_JSON=BENCH_incremental.json $(GO) test -count=1 -run '^TestIncrementalBenchArtifact$$' -v .

# Chaos run against an in-process bivd-shaped server: the hostile
# traffic mix (injected faults, guard trips, slow-loris, mid-request
# hangups) with latency percentiles, shed rate and the error taxonomy
# written to BENCH_serve.json.
bench-serve:
	BENCH_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -count=1 -run '^TestChaosLoadBenchArtifact$$' -v ./internal/serve/

# One short iteration of every benchmark, no JSON artifacts: keeps the
# benchmark code compiling and running in CI without timing assertions.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x .

# Re-derive every figure and table of the paper.
repro:
	$(GO) run ./cmd/paperrepro -q

# Short fuzzing pass over each target; CI runs this on every PR.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test -fuzz FuzzAnalyze -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzInterpreters -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzRun -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzArtifactCodec -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzExactSolve -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/
	$(GO) test -fuzz FuzzVerdictKey -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/

clean:
	$(GO) clean ./...
