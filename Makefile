# Tier-1 verification lanes. `make ci` is what a change must keep green:
#   fmt          fails if any Go file (bench module included) needs gofmt
#   vet          static analysis of every package
#   build        the library, the three binaries, and the examples
#   bench-build  the separate bench module (see below)
#   test         the full suite (unit, property, cross-implementation,
#                vs-analytic)
#   bench-test   the bench module's tests (see below)
#   race         the concurrency-heavy packages (parallel runner,
#                checkpointing) and the symmetry canonicalizer, which
#                lumped generation calls from every worker, under the
#                race detector
# Self-checking lanes (also run in CI):
#   lint-models  static SAN lint over every registered study model shape
#   fuzz-smoke   short fuzz runs of the checkpoint decoder, the
#                stats/rng constructors, and the scenario DSL decoder
#   serve-smoke  end-to-end smoke of the ituad job server: two concurrent
#                jobs stream to completion over a real socket, a
#                resubmission is a byte-identical cache hit, and the cache
#                survives a SIGTERM restart
#   crosscheck   full cross-engine validation (SAN engine vs the
#                independent direct simulator), heavier than the smoke
#                variant that runs inside `make test`
#   livecheck    full live validation (model vs a real fault-injected
#                replica group, the fourth CrossCheck arm), heavier than
#                the four-arm smoke variant inside `make test`
#   faultcheck   full environment-fault cross-check (partitions, attack
#                campaigns, bounded repair crew active in every engine:
#                SAN vs direct vs live vs exact), heavier than the
#                fault smoke variant inside `make test`
#   lumpcheck    symmetry-lumping gate: exhaustive lumped-vs-full
#                equivalence over every study model shape plus the
#                4x2 lumped-anchor cross-check, heavier than the
#                two-configuration equivalence test inside `make test`
#   bench-build  build and vet the separate bench module, which calls
#                internal APIs (ituadirect, rsm/inject, study, server)
#                that the root `go build ./...` never compiles it against
#   bench-test   the bench module's own tests: every workload at smoke
#                size (traced and untraced results must agree exactly)
#                and the full-size golden values of testdata/golden.json
GO ?= go

.PHONY: ci fmt vet build test race bench bench-json bench-mc perf-smoke lint-models fuzz-smoke serve-smoke crosscheck livecheck faultcheck lumpcheck bench-build bench-test

ci: fmt vet build bench-build test bench-test race

fmt:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/sim/... ./internal/study/... ./internal/precision/... ./internal/mc/... ./internal/exact/... ./internal/rsm/... ./internal/server/... ./internal/scenario/...
	$(GO) test -race -run 'Canon' ./internal/core

lint-models:
	$(GO) test ./internal/study -run TestLintRegisteredModels -count=1

fuzz-smoke:
	$(GO) test ./internal/study -run '^$$' -fuzz FuzzCheckpointLine -fuzztime 10s
	$(GO) test ./internal/rng -run '^$$' -fuzz FuzzNewEmpirical -fuzztime 10s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzQuantile -fuzztime 10s
	$(GO) test ./internal/stats -run '^$$' -fuzz FuzzBatchMeans -fuzztime 10s
	$(GO) test ./internal/san -run '^$$' -fuzz FuzzMarkingKey -fuzztime 10s
	$(GO) test ./internal/rsm -run '^$$' -fuzz FuzzWireMsg -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 10s

serve-smoke:
	SERVE_SMOKE=1 $(GO) test ./internal/server -run TestServeSmoke -count=1 -v -timeout 5m

crosscheck:
	CROSSCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckFull -count=1 -v

livecheck:
	LIVECHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckLiveFull -count=1 -v -timeout 30m

faultcheck:
	FAULTCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckFaultsFull -count=1 -v -timeout 30m

# lumpcheck is the symmetry-lumping gate: the exhaustive lumped-vs-full
# equivalence sweep over every registered study model shape (worker
# counts 1 and 4, agreement to 1e-12), plus the 4-domain x 2-host anchor
# cross-check — a topology whose full chain is far beyond the default
# MaxStates, solved exactly on the quotient and required to land inside
# the SAN and direct simulators' confidence-interval union.
lumpcheck:
	LUMPCHECK_FULL=1 $(GO) test ./internal/exact -run TestLumpedEquivalenceShapes -count=1 -v -timeout 30m
	LUMPCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckLumpedAnchor -count=1 -v -timeout 30m

bench-build:
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

bench-test:
	cd bench && $(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/sim ./internal/mc

# bench-json runs the benchmark suite and archives the results as
# BENCH_<date>.json (name, ns/op, reps, allocation stats, custom metrics)
# for diffing across commits. See cmd/benchjson. Set BENCHJSON_FLAGS to
# pass options through, e.g.
#   make bench-json BENCHJSON_FLAGS='-o BENCH_PR4.json -baseline BENCH_old.json'
# to write a named report embedding a before/after comparison.
bench-json:
	$(GO) test -bench=. -benchmem -run=^$$ . ./internal/sim ./internal/mc | $(GO) run ./cmd/benchjson $(BENCHJSON_FLAGS)

# bench-mc runs only the analytic-path (state-space generation +
# uniformization) benchmarks — including the ITUA full-vs-lumped pair —
# and writes BENCH_PR9.json with the speedup over the checked-in
# pre-lumping baseline BENCH_PR9_baseline.json.
bench-mc:
	$(GO) test -bench 'BenchmarkMC' -benchmem -timeout 40m -run=^$$ ./internal/mc | \
		$(GO) run ./cmd/benchjson -o BENCH_PR9.json -baseline BENCH_PR9_baseline.json

# perf-smoke is the fast CI lane: one iteration of the engine hot-path
# benchmarks plus one full figure panel, enough to catch a build break or a
# gross allocation regression without the cost of the full suite.
perf-smoke:
	$(GO) test -bench 'BenchmarkEngine(Step|Replication)' -benchtime 1x -benchmem -run=^$$ ./internal/sim
	$(GO) test -bench 'BenchmarkFig3aUnavailability' -benchtime 1x -benchmem -run=^$$ .
