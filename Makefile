GO ?= go

.PHONY: check build fmt vet test test-race bench-module bench bench-smoke repro fuzz-smoke clean

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

# The benchmark: four seeded workloads (corpus, scale, optimize, serve)
# through the public surfaces, every output checked against an oracle,
# every metric printed by name (bench/README.md for its flags).
bench:
	bash bench/run.sh

# One iteration of every plain benchmark in the root package: keeps the
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
	$(GO) test -fuzz FuzzEquivalence -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzArtifactCodec -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzAlign -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzExactSolve -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/
	$(GO) test -fuzz FuzzVerdictKey -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/

clean:
	$(GO) clean ./...
