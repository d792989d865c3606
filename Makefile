# Tier-1 verification lanes. `make ci` is what a change must keep green:
#   fmt          fails if any Go file (bench module included) needs gofmt
#   vet          static analysis of every package; it type-checks every
#                _test.go, so it also catches a build break in the one
#                surviving `go test -bench` micro-benchmark
#                (mc's BenchmarkMCUniformStep10k)
#   build        the library, the four binaries, and the examples
#   bench-build  the separate bench module (see below)
#   test         the full suite (unit, property, cross-implementation,
#                vs-analytic), including the allocation-free engine
#                replication gate and every figure runner
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
#                equivalence over every study model shape, the full
#                4x1 chain's state and transition counts, and the 4x2
#                lumped-anchor cross-check, heavier than the
#                two-configuration equivalence and lumped-count tests
#                inside `make test`
#   bench-build  build and vet the separate bench module, which calls
#                internal APIs (ituadirect, rsm/inject, study, server)
#                that the root `go build ./...` never compiles it against
#   bench-test   the bench module's own tests: every workload at smoke
#                size (traced and untraced results must agree exactly)
#                and the full-size golden values of testdata/golden.json
# Performance has one benchmark: `bash bench/run.sh` (see bench/README.md).
GO ?= go

.PHONY: ci fmt vet build test race lint-models fuzz-smoke serve-smoke crosscheck livecheck faultcheck lumpcheck bench-build bench-test

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
# the SAN and direct simulators' confidence-interval union. It also pins
# the size of the full 4-domain x 1-host chain (806,275 states) that the
# 39,062-state quotient in `make test` is measured against.
lumpcheck:
	LUMPCHECK_FULL=1 $(GO) test ./internal/exact -run TestLumpedEquivalenceShapes -count=1 -v -timeout 30m
	LUMPCHECK_FULL=1 $(GO) test ./internal/mc -run TestITUAFullChainSize -count=1 -v -timeout 30m
	LUMPCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckLumpedAnchor -count=1 -v -timeout 30m

bench-build:
	cd bench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

bench-test:
	cd bench && $(GO) test ./...
