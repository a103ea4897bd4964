# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test check race workers vet fmt lint usage bench benchguard bench-pairs baseline telemetry chaos chaos-service serve-integration sweep golden fuzz clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check = everything CI's build-test + lint jobs run.
check: build vet fmt lint test race

race:
	$(GO) test -race ./internal/comm/... ./internal/pmat/... ./internal/core/... ./internal/telemetry/... ./internal/bench/... ./internal/service/... ./internal/par/... ./internal/slu/... ./internal/ksp/... ./internal/aztec/...

# workers = CI's workers-pool leg: the whole suite with every session
# forced onto a pooled backend (core's LISI_WORKERS env fallback).
workers:
	LISI_WORKERS=4 $(GO) test -race -count=1 ./...

vet:
	$(GO) vet ./...

# lint = the SPMD-aware static analysis suite (docs/ANALYSIS.md). Output is
# deterministic (sorted by file:line:column), exit is nonzero on findings,
# stale //lisi:ignore comments included. `make test` runs the same check
# as internal/analysis's TestRepoClean.
lint:
	$(GO) run ./cmd/lisi-vet ./...

# usage = the usage record (ROADMAP item 13): the functions under
# internal/ that no door reaches — upper-layer tests, examples, binaries
# and the benchmark smoke — with their line counts. Informational.
usage:
	./scripts/usage.sh

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench = CI's smoke (compile & run every benchmark once) + the guard.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...
	./scripts/benchguard.sh

benchguard:
	./scripts/benchguard.sh

# bench-pairs = the end-to-end benchmark alternated between a parent
# commit and this tree: make bench-pairs PARENT=HEAD~1 WORKLOAD=stencil-gmres
# (PAIRS defaults to 3, 10 for a headline claim; SECONDS to the
# benchmark's own run length).
PARENT ?= HEAD
WORKLOAD ?= stencil-gmres
PAIRS ?= 3
SECONDS ?=
bench-pairs:
	./scripts/benchpairs.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SECONDS)

baseline:
	./scripts/benchguard.sh --update

telemetry:
	$(GO) run ./cmd/lisi-bench -telemetry telemetry.json -runs 3
	@echo "reports in telemetry.json"

# chaos = the seeded fault-injection suite (docs/TESTING.md). Override the
# seed to replay a CI failure: make chaos CHAOS_SEED=1337
CHAOS_SEED ?=
chaos:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -v ./internal/fault ./internal/chaos

# chaos-service = the same seeded-fault contract at the HTTP edge
# (docs/SERVICE.md): typed JSON abort statuses, never hangs.
chaos-service:
	CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -tags faultinject -v \
		-run 'TestServiceChaosTypedStatuses|TestServiceServerLevelFaultSpec|TestServiceFaultSpecHTTP' ./internal/service

# serve-integration = CI's black-box lisi-serve job: build the binary,
# boot it, drive concurrent multi-tenant load, SIGTERM-drain it.
serve-integration:
	$(GO) build -o /tmp/lisi-serve ./cmd/lisi-serve
	LISI_SERVE_BIN=/tmp/lisi-serve $(GO) test -race -count=1 -v -run TestServeBinary ./internal/service

# sweep = CI's sweep-smoke leg: the accuracy/efficiency sweep over the
# checked-in workload corpus (docs/WORKLOADS.md), report written next to
# the repo root.
sweep:
	$(GO) run ./cmd/lisi-bench -sweep -corpus testdata/corpus -sweep-out sweep.json -sweep-md sweep.md

# golden = the golden conformance suite. Regenerate the digests after an
# intentional numerical change with make golden UPDATE=1.
golden:
	LISI_UPDATE_GOLDEN=$(UPDATE) $(GO) test -race -count=1 -v -run TestGoldenConformance ./internal/integration

# fuzz = CI's smoke: each native fuzz target for FUZZTIME (seed corpora in
# testdata/fuzz/ replay in every plain `go test` run regardless).
FUZZTIME ?= 10s
fuzz:
	for t in FuzzCSRFromTriplets FuzzNewCSRValidation FuzzSELLFromCSR FuzzReadMatrixMarket; do \
		$(GO) test -run='^$$' -fuzz="^$$t\$$" -fuzztime=$(FUZZTIME) ./internal/sparse || exit 1; done
	for t in FuzzPartition FuzzGenerateRows; do \
		$(GO) test -run='^$$' -fuzz="^$$t\$$" -fuzztime=$(FUZZTIME) ./internal/mesh || exit 1; done
	$(GO) test -run='^$$' -fuzz='^FuzzLevels$$' -fuzztime=$(FUZZTIME) ./internal/par
	for t in FuzzMinDegreeMatchesReference FuzzStaticRefactorMatchesFresh; do \
		$(GO) test -run='^$$' -fuzz="^$$t\$$" -fuzztime=$(FUZZTIME) ./internal/slu || exit 1; done
	$(GO) test -run='^$$' -fuzz='^FuzzILUTMatchesReference$$' -fuzztime=$(FUZZTIME) ./internal/aztec

clean:
	rm -f telemetry.json out.json sweep.json sweep.md
