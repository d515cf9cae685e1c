#!/bin/sh
# ci.sh — the repo's tier-1 gate. Runs the full static + test + benchmark
# smoke suite; exits non-zero on the first failure.
#
#   ./ci.sh          # vet, build, race tests, benchmark smoke
#   ./ci.sh -short   # skip the benchmark smoke pass and the trace smoke
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

# The benchmark is its own module (bench/, replace repro => ../), so the
# runs above skip it. It drives the public core API and maps span names to
# layers; vet and test it here so an API change or an unmapped span fails
# CI rather than only the benchmark run. Runs under -short too.
echo "== bench module (vet + test) =="
(cd bench && go vet ./... && go test -count=1 ./...)

# The parallel experiment runner is the one place goroutines touch shared
# slices; race it explicitly so a future narrowing of the blanket run above
# cannot silently drop it. The fault layer and the degraded-read/resilience
# paths ride in the same stage: fault sweeps fan hermetic cells across the
# runner's workers, so they are the newest cross-goroutine surface.
echo "== go test -race (experiment runner + fault/resilience paths) =="
go test -race -count=1 ./internal/experiments/... ./internal/faults/... \
    ./internal/core/ ./internal/rados/ ./internal/erasure/

# Spec-table exhaustiveness: every named stack must assemble through
# BuildStack and serve I/O, every ablation spec must validate, and every
# invalid layer combination must be rejected — under the race detector, so
# a spec-table edit cannot land with an unbuildable row.
echo "== stack spec table (race) =="
go test -race -count=1 -run 'TestNamedSpecsBuild|TestBuildStack|TestParseStackSpec|TestSQFullBackoff' ./internal/core/
go test -race -count=1 -run 'TestAblationSpecsValid|TestGoldenDigests' ./internal/experiments/

# Fuzz seed corpus for the fused GF(256) kernel: runs the f.Add cases
# (length 0, sub-block, non-multiple-of-32 tails, misalignment) as plain
# tests — cheap enough for every CI run, -short included.
# Sharded engine: the conservative-lookahead barrier loop, the cross-shard
# network layer and the city-scale model are the only places worker
# goroutines run simulation events concurrently. Race the shard protocol
# tests plus a ScaleSweep smoke cell (256 OSDs across 1/2/8 shards)
# explicitly so the determinism property is always exercised under the
# detector.
echo "== sharded engine (race: shard protocol + scale smoke) =="
go test -race -count=1 -run 'TestShard|TestEngineReserve|TestFreelistCap|TestHeapRandomOrder' \
    ./internal/sim/ ./internal/netsim/
go test -race -count=1 -run 'TestScale' ./internal/rados/ ./internal/experiments/

# Event-driven OSD service, placement memos and interned object names:
# the memos and name tables fill lazily on first use, so race the packages
# that own them at two Ps, where shard window workers really run at the
# same time, plus the whole core and netsim packages: split-domain client
# requests are event chains over pooled ops that run inside the shard
# windows (the request leg on the host shard, OSD work on the node shards).
echo "== placement memos + event-driven OSD service (race, GOMAXPROCS=2) =="
GOMAXPROCS=2 go test -race -count=1 ./internal/sim/ ./internal/rados/ ./internal/fpga/ ./internal/rbd/
GOMAXPROCS=2 go test -race -count=1 ./internal/core/ ./internal/netsim/

# Write-back cache tier: the LSVD log/index/flush machinery runs a
# background flusher goroutine-equivalent inside the simulation plus the
# parallel sweep cells, so race the package and the cache sweep explicitly;
# the crash-recovery smoke pins the zero-acked-loss replay contract, and
# the split-domain smoke drives the host-domain client + cache against
# OSDs on a second shard.
echo "== lsvd cache tier (race: package + sweep + crash recovery) =="
go test -race -count=1 ./internal/lsvd/
go test -race -count=1 -run 'TestCrashRecovery' ./internal/lsvd/
go test -race -count=1 -run 'TestCacheSweep|TestCacheHit|TestParseCacheSpec|TestValidateRejectsCacheCombos' \
    ./internal/experiments/ ./internal/core/
echo "== split-domain testbed smoke (race, -shards 2) =="
go test -race -count=1 -run 'TestSplitDomain|TestFabricSplit' \
    ./internal/core/ ./internal/netsim/

# Per-I/O span tracing: the trace sweep fans traced cells across the
# runner's workers and, on split-domain testbeds, two shard workers feed
# one sink set — race the package plus the determinism/perturbation gates
# explicitly. TestTracingZeroPerturbation is the zero-cost-off contract's
# strong form (full-rate tracing leaves every statistic bit-identical);
# the golden-digest gate above already pins the tracing-off bytes.
echo "== trace subsystem (race: package + sweep determinism + zero perturbation) =="
go test -race -count=1 ./internal/trace/
go test -race -count=1 -run 'TestTraceSweep|TestTracingZeroPerturbation|TestTraceFileRoundTrip|TestFamilyProbe' \
    ./internal/experiments/
go test -race -count=1 -run 'TestStageProfile' ./internal/core/

# Fuzz seed corpus for the trace encoder: arbitrary span names, IDs and
# (possibly negative) times must encode to valid JSON that round-trips
# decode/re-encode idempotently.
echo "== trace encoder fuzz seeds =="
go test -run 'Fuzz' ./internal/trace/

# Fuzz seed corpus for the extent index: random overlapping insert/lookup
# sequences cross-checked against a flat shadow map, as plain tests.
echo "== lsvd extent-index fuzz seeds =="
go test -run 'Fuzz' ./internal/lsvd/

echo "== gf256 fuzz seeds =="
go test -run 'Fuzz' ./internal/gf256/

# Fuzz seed corpus for the retry backoff: bounds (jitter in [base, cap]),
# nil-rng upper-edge dominance, and same-seed replay, as plain tests.
echo "== faults backoff fuzz seeds =="
go test -run 'Fuzz' ./internal/faults/

# Multi-Raft replication backend: per-PG groups run leader election, log
# replication and snapshot catch-up inside the sim, and the replication
# head-to-head fans hermetic cells across the runner's workers — race the
# package plus the sweep's determinism/availability/deadline-budget gates
# explicitly, and run the wire-codec fuzz seed corpus as plain tests.
echo "== raft backend (race: package + replication head-to-head) =="
go test -race -count=1 ./internal/raft/
go test -race -count=1 -run 'TestRaftSweep|TestRaftElectionStorm' ./internal/experiments/
echo "== raft codec fuzz seeds =="
go test -run 'Fuzz' ./internal/raft/

# Multi-tenant QoS axis: the blk-mq elevators keep per-tenant state that
# must stay engine-local (the raced replica test proves it), the SR-IOV
# driver hashes tenants onto functions/queue sets, and the tenant sweep
# fans hermetic cells — including the 10k-tenant fleet column on the
# sharded ScaleCluster — across the runner's workers. Race the queueing
# layers plus the sweep's determinism/isolation gates explicitly.
echo "== multi-tenant QoS axis (race: blockmq + qdma + tenant sweep) =="
go test -race -count=1 ./internal/blockmq/ ./internal/qdma/ ./internal/uifd/
go test -race -count=1 -run 'TestTenantSweep|TestQoSScheduler' \
    ./internal/experiments/ ./internal/blockmq/
go test -race -count=1 -run 'TestTenant|TestRunTenants|TestQoSShapes|TestCompactHistogram|TestFairness' \
    ./internal/metrics/ ./internal/fio/

if [ "${1:-}" != "-short" ]; then
    # One iteration of every benchmark with allocation counts: catches
    # bit-rot in the perf harness and regressions in the zero-alloc
    # invariants without a full measurement run.
    echo "== benchmark smoke (-benchtime=1x) =="
    go test -run '^$' -bench . -benchtime=1x -benchmem ./...
fi

# One quick-scale report: every registry family run serially, at the
# default parallelism and on 2-shard engines. It is the serial/parallel/
# shards determinism gate (every family's three digests must match each
# other and its golden pin) and the acceptance gate (every family's Check
# must pass), so it runs under -short too. Outputs go to a scratch
# directory: CI rewrites no tracked file.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
echo "== delibabench report (quick: determinism + checks) =="
go run ./cmd/delibabench -quick -report "$tmp/report.json"

if [ "${1:-}" != "-short" ]; then
    # Trace smoke: emit the traced sweep and validate it against the
    # Chrome/Perfetto trace_event schema with the offline tool.
    echo "== trace smoke (-trace + dfxtool trace validate) =="
    go run ./cmd/delibabench -quick -trace "$tmp/trace.json"
    go run ./cmd/dfxtool trace validate "$tmp/trace.json"
    go run ./cmd/dfxtool trace summary "$tmp/trace.json"
fi

echo "CI OK"
