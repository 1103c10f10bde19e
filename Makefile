# Development targets. `make check` is the pre-merge gate: formatting,
# static analysis, the full test suite under the race detector, and the
# separate benchmark module's vet and tests.

GO ?= go

.PHONY: build test race vet fmt deps check chaos bench figures walcrash planparity census regress regress-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The request path — the library, mcsd and mcsrouter — links none of the
# Figure 2 ecosystem packages; only examples, scenario tests and their own
# daemons do.
deps:
	@list=$$($(GO) list -deps . ./cmd/mcsd ./cmd/mcsrouter) || exit 1; \
		out=$$(echo "$$list" | grep -E '^mcs/internal/(rls|gridftp|pegasus|container|xmlshred)$$'); \
		if [ -n "$$out" ]; then echo "request path links:"; echo "$$out"; exit 1; fi

check: fmt vet deps race planparity regress-test
	@echo "check: ok"

# The differential planner-parity suite: seeded random schemas, data and
# SELECTs, the planner against the naive full-scan evaluator
# (row multisets must match exactly), run twice under the race detector,
# then a short randomized fuzzing pass over fresh seeds.
planparity:
	$(GO) test -race -count=2 -run 'TestPlanParity' ./internal/sqldb
	$(GO) test -run '^$$' -fuzz 'FuzzPlanParity' -fuzztime 30s ./internal/sqldb

# The fault-injection suite under fixed seeds (override with
# MCS_CHAOS_SEEDS=...): fault matrix, retry tests, soak, plus the shard
# router's degraded-mode legs (partial results, retried mutations through
# the router, pagination across a shard restart).
chaos:
	MCS_CHAOS_SEEDS=$${MCS_CHAOS_SEEDS:-1,7,42} \
		$(GO) test -race -timeout 5m -run 'TestChaos|TestRetry|TestBatchWriteAtomicVisibility|TestPaginationTokenSurvivesRestart|TestShardRouterChaosPartialResult|TestShardRouterRetriedMutation|TestShardRouterPaginationAcrossShardRestart' -v .

bench:
	$(GO) test -bench=. -benchmem ./...

# The paper's evaluation, Figures 5–11, at laptop-scale defaults.
figures:
	$(GO) run ./cmd/mcsbench -fig all

# The write-ahead-log crash suite: the torn-write corpus (recovery from a
# hard cut at every byte offset of the final record), the batched replay
# held to the live catalog's dump, the record format pin, the kill-and-
# replay chaos leg (a retried mutation straddling a crash stays exactly-once),
# the checkpoint-failure regression, the daemon-level crash recovery, and —
# the other half of what a crash leaves behind — the snapshot suite: format
# pin, structural and byte-level damage corpus, the refusal of gob-era
# snapshots, the hand-framed legacy log tail, orphaned temp file.
walcrash:
	MCS_CHAOS_SEEDS=$${MCS_CHAOS_SEEDS:-1,7,42} \
		$(GO) test -race -timeout 10m -v \
		-run 'TestWAL|TestChaosWALKillReplay|TestCheckpointFailureKeepsWAL|TestDaemonWALCrashRecovery|TestSnapshot|TestLoadSnapshot|TestGeneration1SnapshotRefused|TestBootFromLegacyWALTail|TestBootRemovesOrphanedTmp|TestBootSurvivesUnremovableTmp' \
		./internal/sqldb ./cmd/mcsd .

# The engine's statement census: the tests of every package but sqldb (and
# btree) run with internal/sqldb instrumented, then the sqldb functions they
# never execute are listed. A function at 0.0 % is either an error path, the
# QueryNaive oracle, or code no catalog statement reaches. Not part of
# `make check`: it answers a question, it gates nothing.
census:
	@prof=$$(mktemp) && trap 'rm -f "$$prof"' EXIT && \
		$(GO) test -count=1 -coverpkg=mcs/internal/sqldb -coverprofile="$$prof" \
			$$($(GO) list ./... | grep -v 'internal/sqldb$$\|internal/btree$$') && \
		echo "sqldb functions no other package's tests execute:" && \
		$(GO) tool cover -func="$$prof" | grep '[[:space:]]0\.0%$$' | sed 's|^mcs/internal/sqldb/||'

# The regression benchmark (benchmark/README.md): one seeded 10 s run of each
# of the five workloads, exactly as the driver invokes it. Each run appends
# to benchmark/out/results.json; compare two result sets with
# `go -C benchmark run . -compare A.json B.json`.
regress:
	@for w in discover ingest mixed mixed_soap sharded; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 10 --trace 0 || exit 1; \
	done

# The benchmark module's vet and own tests. It is a separate module, so the
# root `go vet ./...` and `go test ./...` never compile it: this is what
# catches an exported-API change that would stop the benchmark building.
regress-test:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .
