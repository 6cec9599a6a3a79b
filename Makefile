GO ?= go

.PHONY: ci vet build test race race-store race-match race-lifecycle race-columnar race-cluster race-search cluster-smoke fuzz-smoke bench bench-smoke bench-overhead bench-search bench-write experiments

ci: vet build race race-store race-match race-lifecycle race-columnar race-cluster race-search cluster-smoke fuzz-smoke bench-smoke bench-overhead bench-search bench-write

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The store's concurrency contract (many readers, one writer, compaction
# in between) and the serving layer's singleflight path, checked with
# more iterations than the catch-all race run gives them. The second
# line hammers the group committer specifically: concurrent Put/PutBatch
# and Delete racing Flush and Snapshot against the single committer
# goroutine, at higher iteration counts than the package-wide pass.
race-store:
	$(GO) test -race -count=2 ./internal/store/ ./internal/serve/
	$(GO) test -race -count=4 -run 'TestGroupCommit|TestPutBatch|TestStoreParallelPut|TestCrashRecovery' ./internal/store/

# One iteration of every benchmark: catches benchmarks that no longer
# compile or crash without paying for a full measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Catalog-index concurrency: feasibility reads racing Update/Remove
# rebuilds, plus the matrix's sharded sweep, with more iterations than
# the catch-all race run gives them.
race-match:
	$(GO) test -race -count=2 -run 'TestCatalogIndex|TestMatchMatrix|TestFindSubstitutes' ./internal/match/

# Lifecycle concurrency: concurrent probe sweeps, /watch long-pollers
# racing log appends, and repair-queue approvals racing enqueues, with
# more iterations than the catch-all race run gives them.
race-lifecycle:
	$(GO) test -race -count=2 ./internal/lifecycle/
	$(GO) test -race -count=2 -run 'TestLifecycle|TestWatch|TestRepairs|TestSubstitutesCache|TestServePreStop' ./internal/serve/

# Columnar concurrency: the shared symbol table hammered from parallel
# store writers, interning racing lookups, and incremental matrix
# rebuilds racing index mutations.
race-columnar:
	$(GO) test -race -count=2 -run 'TestSymbolTable|TestStoreParallelPut|TestIncrementalMatrix' ./internal/dataexample/ ./internal/store/ ./internal/match/

# Cluster concurrency: WAL feed long-pollers racing appends and drains,
# follower tails racing leader truncation/reset, scatter-gather rounds
# racing shard failures, the store's replication cursor, and follower
# reads racing replicated batch applies, with more iterations than the
# catch-all race run gives them.
race-cluster:
	$(GO) test -race -count=2 ./internal/cluster/
	$(GO) test -race -count=2 -run 'TestCluster|TestWatchDrain|TestReplication|TestTail|TestApplyReplicated|TestResetReplicated|TestFollowerReads' ./internal/serve/ ./internal/store/

# Serving-tier gate: the full 252-module catalog sharded three ways must
# answer /matches and /substitutes byte-identically to a single-node
# oracle, and dexa-load must produce a latency-percentile report from a
# two-shard cluster on a tiny request budget. Gates results, not
# timings — safe on any host.
cluster-smoke:
	$(GO) test -run TestClusterSmokeFullCatalog -count=1 ./internal/serve/
	$(GO) test -run 'TestRun' -count=1 ./cmd/dexa-load/

# Search concurrency: queries and pagination racing Update/Remove on the
# live index, the availability hook firing from parallel registry
# mutations, and the serve-layer search/compose endpoints (single-node
# and scatter-gather), with more iterations than the catch-all race run
# gives them.
race-search:
	$(GO) test -race -count=2 ./internal/search/
	$(GO) test -race -count=2 -run 'TestSearch|TestClusterSearch|TestCompose' ./internal/serve/

# Log-format fuzzing: ten seconds each of WAL and journal recovery over
# arbitrary bytes, and of the follower's frame-stream decoder, raw and
# deflated. Seeded from the golden WAL files; a failing input lands in
# testdata/fuzz/ for replay by plain `go test`.
fuzz-smoke:
	$(GO) test -run=NONE -fuzz='^FuzzSegmentRecovery$$' -fuzztime=10s ./internal/store/
	$(GO) test -run=NONE -fuzz='^FuzzDecodeFrameStream$$' -fuzztime=10s ./internal/cluster/

# Search-index gate: ranked queries must be deterministic, an index
# maintained incrementally through Update/Remove churn must answer a
# three-family query battery identically to a fresh build, and walking
# small pages must reassemble exactly the full ranked list. Gates
# results, not timings — safe on any host.
bench-search:
	$(GO) run ./cmd/dexa-bench -search-only

# Write-path gate: the same concurrent workload through the group
# committer and the pre-batching per-put-fsync path must converge to
# identical state, survive close/reopen byte-identically, and mirror
# byte-identically over the batched compressed feed; group commit at 8
# writers must clear 2x over per-put fsync (remeasures once to absorb
# scheduler noise).
bench-write:
	$(GO) run ./cmd/dexa-bench -write-only

# Telemetry-overhead gate: generation with a live metrics registry must
# stay within 5% of the no-op recorder. Remeasures once on failure to
# absorb scheduler noise; exits non-zero on a reproducible regression.
bench-overhead:
	$(GO) run ./cmd/dexa-bench -overhead-only

# Full measurement run: writes a BENCH_<date>.json snapshot. Compare
# against a committed snapshot with:
#   go run ./cmd/dexa-bench -baseline BENCH_<date>.json
bench:
	$(GO) run ./cmd/dexa-bench -o BENCH_$$(date +%Y-%m-%d).json

experiments:
	$(GO) run ./cmd/dexa-experiments
