GO ?= go

.PHONY: check build fmt vet test test-race examples bench-module bench bench-smoke repro fuzz-smoke clean

# The full gate: what CI (and every PR) must pass.
check: build fmt vet test-race examples bench-module

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

# Run every example twice: each must exit 0 and print the same bytes
# both times, and examples/strength must print the figure README quotes.
examples:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/; do \
		ex=$$(basename $$d); \
		$(GO) build -o $$tmp/$$ex ./$$d; \
		$$tmp/$$ex > $$tmp/$$ex.1; \
		$$tmp/$$ex > $$tmp/$$ex.2; \
		cmp -s $$tmp/$$ex.1 $$tmp/$$ex.2 || { echo "examples/$$ex: stdout differs between runs"; exit 1; }; \
	done; \
	grep -q '2048 before, 0 after' $$tmp/strength.1 || { echo "examples/strength: no '2048 before, 0 after'"; exit 1; }

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
	$(GO) test -fuzz FuzzCompiledInterp -fuzztime $(FUZZTIME) -run '^$$' ./internal/interp/
	$(GO) test -fuzz FuzzRun -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzEquivalence -fuzztime $(FUZZTIME) -run '^$$' .
	$(GO) test -fuzz FuzzArtifactCodec -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzAlign -fuzztime $(FUZZTIME) -run '^$$' ./internal/codec/
	$(GO) test -fuzz FuzzExactSolve -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/
	$(GO) test -fuzz FuzzVerdictKey -fuzztime $(FUZZTIME) -run '^$$' ./internal/depend/

clean:
	$(GO) clean ./...
