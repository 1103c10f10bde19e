# Development targets. `make check` is the pre-merge gate: formatting,
# static analysis, the full test suite under the race detector, and the
# separate benchmark module's vet and tests.

GO ?= go

.PHONY: build test race vet fmt check chaos bench figures readpath walcrash walbench transportbench addpath attrpath planparity shardbench regress regress-test

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

check: fmt vet race planparity regress-test
	@echo "check: ok"

# The differential planner-parity suite: seeded random schemas, data and
# SELECTs, the cost-based planner against the naive full-scan evaluator
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

figures:
	$(GO) run ./cmd/mcsbench -fig all

# The MVCC read-path sweep (Fig. 14): one writer plus 1/2/4/8 reader
# threads on one catalog, emitted as BENCH_readpath.json. Override the
# window or size for a quick smoke run, e.g.
# `make readpath READPATH_FLAGS="-duration 200ms -sizes 1000"`.
readpath:
	$(GO) run ./cmd/mcsbench -fig 14 -threads 1,2,4,8 -sizes 10000 \
		-json BENCH_readpath.json $(READPATH_FLAGS)

# The write-ahead-log crash suite: the torn-write corpus (recovery from a
# hard cut at every byte offset of the final record), the kill-and-replay
# chaos leg (a retried mutation straddling a crash stays exactly-once),
# the checkpoint-failure regression, the daemon-level crash recovery, and —
# the other half of what a crash leaves behind — the snapshot suite: format
# pin, structural and byte-level damage corpus, legacy fixture, orphaned
# temp file.
walcrash:
	MCS_CHAOS_SEEDS=$${MCS_CHAOS_SEEDS:-1,7,42} \
		$(GO) test -race -timeout 10m -v \
		-run 'TestWAL|TestChaosWALKillReplay|TestCheckpointFailureKeepsWAL|TestDaemonWALCrashRecovery|TestSnapshot|TestLoadSnapshot|TestBootFromLegacySnapshotAndWAL|TestBootRemovesOrphanedTmp|TestBootSurvivesUnremovableTmp' \
		./internal/sqldb ./cmd/mcsd .

# The durability sweep (Fig. 15): add rate snapshot-only vs WAL with group
# commit vs WAL without fsync, emitted as BENCH_wal.json. Override for a
# quick smoke run, e.g.
# `make walbench WALBENCH_FLAGS="-duration 200ms -sizes 1000"`.
walbench:
	$(GO) run ./cmd/mcsbench -fig 15 -threads 1,2,4,8 -sizes 10000 \
		-wal-json BENCH_wal.json $(WALBENCH_FLAGS)

# The wire comparison (Fig. 16): add and simple-query rate through the same
# server over the SOAP envelope vs the compact JSON wire, emitted as
# BENCH_transport.json (including the JSON/SOAP speedup on the add path).
# Override for a quick smoke run, e.g.
# `make transportbench TRANSPORTBENCH_FLAGS="-duration 200ms -sizes 1000"`.
transportbench:
	$(GO) run ./cmd/mcsbench -fig 16 -threads 1,2,4,8 -sizes 10000 \
		-transport-json BENCH_transport.json $(TRANSPORTBENCH_FLAGS)

# The write-amplification sweep (Fig. 17): pure add rate, one CreateFile per
# file vs 100 creates per batchWrite transaction, with heap bytes allocated
# per add, emitted as BENCH_addpath.json. Override for a quick smoke run,
# e.g. `make addpath ADDPATH_FLAGS="-duration 200ms -sizes 1000"`.
addpath:
	$(GO) run ./cmd/mcsbench -fig 17 -threads 1,2,4,8 -sizes 10000 \
		-addpath-json BENCH_addpath.json $(ADDPATH_FLAGS)

# The attribute-count sweep (Fig. 11): complex-query rate vs predicate count,
# single thread, database only, emitted as BENCH_attrpath.json including the
# per-count EXPLAIN plans and the 1-to-8-attribute cliff ratio the cost-based
# planner is held to (<= 2; the nested-join baseline was near 10). Override
# for a quick smoke run, e.g.
# `make attrpath ATTRPATH_FLAGS="-duration 300ms -sizes 2000"`.
attrpath:
	$(GO) run ./cmd/mcsbench -fig 11 -attr-sweep 1,2,4,6,8,10 -sizes 20000 \
		-attr-json BENCH_attrpath.json $(ATTRPATH_FLAGS)

# The horizontal-sharding sweep (Fig. 18): aggregate add, simple-query and
# scatter-query rate through the mcsrouter front end at 1, 2 and 4 shards,
# emitted as BENCH_shard.json including the add-rate scale-out factor at the
# largest shard count (meaningful on multi-core hosts; a single core
# measures routing overhead instead — the JSON records gomaxprocs).
# Override for a quick smoke run, e.g.
# `make shardbench SHARDBENCH_FLAGS="-duration 200ms -sizes 1000"`.
shardbench:
	$(GO) run ./cmd/mcsbench -fig 18 -shard-counts 1,2,4 -sizes 10000 \
		-shard-json BENCH_shard.json $(SHARDBENCH_FLAGS)

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
