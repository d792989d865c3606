# Tier-1 verification lanes. `make ci` is what a change must keep green:
#   fmt          fails if any Go file (bench module included) needs gofmt
#   vet          static analysis of every package; it type-checks every
#                _test.go, so it also catches a build break in the one
#                surviving `go test -bench` micro-benchmark
#                (mc's BenchmarkMCUniformStep10k)
#   build        the library, the four binaries, and the examples
#   bench-build  the separate bench module (see below)
#   test         the full suite (unit, property, cross-implementation,
#                vs-analytic), including the allocation gates (engine
#                replication on a toy model and on every registered grid
#                point, direct-simulator replication, live transport
#                send/deliver, client probe) and every figure runner
#   bench-test   the bench module's tests (see below)
#   race         the concurrency-heavy packages (parallel runner,
#                checkpointing, the direct simulator's replication pool
#                and the cross-check that drives every arm's pool) and
#                the symmetry canonicalizer, which lumped generation
#                calls from every worker, under the race detector
# Self-checking lanes (also run in CI, except lint-models):
#   lint-models  static SAN lint over every point of every registered
#                study's grid (study.Registry's Grid, each distinct
#                configuration once) and numval's reduced model, plus
#                three validate-mode (read-traced) replications of each,
#                for local use: its one test runs in `test` and `race`
#   fuzz-smoke   short fuzz runs of the checkpoint decoder, the SAN
#                marking-key codec, the live wire codec, the scenario DSL
#                decoder, the symmetry canonicalizer's keys, the
#                enumerated permutation prefixes (each ordered prefix
#                once, multiplicities summing to n!, the bits of a full
#                permutation's probability, the simulation draws of
#                Perm), and the sliced uniformization step against a
#                plain transposed-CSR reference
#   serve-smoke  end-to-end smoke of the ituad job server: two concurrent
#                jobs stream to completion over a real socket, a
#                resubmission is a byte-identical cache hit, and the cache
#                survives a SIGTERM restart
#   examples-smoke  build and run every examples/ program; a non-zero exit
#                fails (analytic and mm1validation exit non-zero when
#                simulation and the numerical solver disagree), and so
#                does stdout that differs from the example's
#                testdata/stdout.golden (every example is deterministic)
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
#   lumpcheck    symmetry-lumping gate: lumped-vs-full equivalence over
#                every distinct configuration of the analytic, live and
#                faults grids plus a 1x3 host domain, the full 4x1
#                chain's state and transition counts, and the 4x2
#                lumped-anchor cross-check, heavier than the
#                two-configuration equivalence and lumped-count tests
#                inside `make test`
#   bench-build  build and vet the separate bench module, which calls
#                internal APIs (ituadirect, rsm transport and codec,
#                rsm/inject, groupcomm, study, server) that the root
#                `go build ./...` never compiles it against
#   bench-test   the bench module's own tests: every workload at smoke
#                size (traced and untraced results must agree exactly)
#                and the full-size golden values of testdata/golden.json
#   results      regenerate the committed results/*.csv and
#                results_figures.txt with the two EXPERIMENTS.md
#                commands, minus the wall-clock `completed in` lines;
#                every figure is bit-identical at every worker count, so
#                CI fails on any diff against the committed files
# Performance has one benchmark: `bash bench/run.sh` (see bench/README.md).
GO ?= go

.PHONY: ci fmt vet build test race lint-models fuzz-smoke serve-smoke examples-smoke crosscheck livecheck faultcheck lumpcheck bench-build bench-test results

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
	$(GO) test -race ./internal/sim/... ./internal/study/... ./internal/precision/... ./internal/mc/... ./internal/exact/... ./internal/rsm/... ./internal/server/... ./internal/scenario/... ./internal/ituadirect/... ./internal/integrity/...
	$(GO) test -race -run 'Canon' ./internal/core

lint-models:
	$(GO) test ./internal/study -run TestLintRegisteredModels -count=1

fuzz-smoke:
	$(GO) test ./internal/study -run '^$$' -fuzz FuzzCheckpointLine -fuzztime 10s
	$(GO) test ./internal/san -run '^$$' -fuzz FuzzMarkingKey -fuzztime 10s
	$(GO) test ./internal/san -run '^$$' -fuzz FuzzPermutePrefix -fuzztime 10s
	$(GO) test ./internal/rsm -run '^$$' -fuzz FuzzWireMsg -fuzztime 10s
	$(GO) test ./internal/scenario -run '^$$' -fuzz FuzzParse -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzCanonicalKey -fuzztime 10s
	$(GO) test ./internal/mc -run '^$$' -fuzz FuzzUniStep -fuzztime 10s

serve-smoke:
	SERVE_SMOKE=1 $(GO) test ./internal/server -run TestServeSmoke -count=1 -v -timeout 5m

examples-smoke:
	@set -e; out="$$(mktemp)"; trap 'rm -f "$$out"' EXIT; \
	for ex in examples/*/; do \
		echo "== $$ex"; $(GO) run ./$$ex >"$$out"; \
		diff -u "$${ex}testdata/stdout.golden" "$$out"; \
	done

crosscheck:
	CROSSCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckFull -count=1 -v

livecheck:
	LIVECHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckLiveFull -count=1 -v -timeout 30m

faultcheck:
	FAULTCHECK_FULL=1 $(GO) test ./internal/integrity -run TestCrossCheckFaultsFull -count=1 -v -timeout 30m

# lumpcheck is the symmetry-lumping gate: the lumped-vs-full equivalence
# sweep over every distinct configuration (Analytic forced) of the
# analytic, live and faults grids, the studies sized so that their full
# chains generate, plus a 1-domain x 3-host case (worker counts 1 and 4,
# agreement to 1e-12; a full chain that hits its state cap, 1<<20 or
# 1<<21 for 1x3, fails), plus the 4-domain x 2-host anchor cross-check —
# a topology whose full chain is far beyond the default MaxStates,
# solved exactly on the quotient and required to land inside
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

results:
	$(GO) run ./cmd/figures -reps 4000 -csv results fig3 fig4 fig5 > results_figures.tmp
	$(GO) run ./cmd/figures -reps 2000 -csv results xval numval abl-detect abl-split abl-convict abl-placement fig5-paired >> results_figures.tmp
	grep -v 'completed in' results_figures.tmp > results_figures.txt
	rm results_figures.tmp
