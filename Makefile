# Build / verification tiers for the CLIP reproduction.
#
#   make build   — compile everything
#   make test    — tier-1: the full test suite
#   make check   — tier-2: build + vet + the benchmark module's vet and tests +
#                  race tests + dispatch, scenario, search and id-index fuzz + bench smoke + docs
#                  lint, then the paired perf gate against the parent commit
#   make docs    — gofmt + vet + godoc-coverage lint (cmd/doclint)
#   make bench   — hot-path benchmarks + suite wall time -> BENCH_results.json
#   make suite   — regenerate every paper artifact (parallel runner)

GO ?= go

# Packages whose exported identifiers must all carry doc comments: every
# package directory under internal/ and cmd/.
DOC_PKGS = $(shell $(GO) list -f '{{.Dir}}' ./internal/... ./cmd/...)

.PHONY: build test check docs bench suite

build:
	$(GO) build ./...

test:
	$(GO) test ./...

check:
	$(GO) build ./...
	$(GO) vet ./...
	cd benchmark && GOPROXY=off $(GO) vet ./...
	cd benchmark && GOPROXY=off $(GO) test ./...
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/core/... ./internal/jobsched/... ./internal/server/... ./internal/telemetry/...
	$(GO) test -race -count=2 ./internal/fed/...
	$(GO) test -run=NONE -fuzz=FuzzDispatchMatchesCold -fuzztime=10s ./internal/jobsched
	$(GO) test -run=NONE -fuzz=FuzzScenarioRoundTrip -fuzztime=5s ./internal/faults
	$(GO) test -run=NONE -fuzz=FuzzScenarioRoundTrip -fuzztime=5s ./internal/fed
	$(GO) test -run=NONE -fuzz=FuzzBestMatchesScan -fuzztime=5s ./internal/recommend
	$(GO) test -run=NONE -fuzz=FuzzIndexMatchesMap -fuzztime=5s ./internal/idindex
	$(GO) test -run=NONE -bench=. -benchtime=1x .
	./scripts/clipd_smoke.sh
	./scripts/fed_smoke.sh
	./scripts/fed_chaos_smoke.sh
	$(MAKE) docs
	./scripts/bench_compare.sh

docs:
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/doclint $(DOC_PKGS)

bench:
	./scripts/bench.sh

suite: build
	$(GO) run ./cmd/clipbench -exp all
