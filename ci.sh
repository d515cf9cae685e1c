#!/bin/sh
# ci.sh — the repo's tier-1 gate. Runs the full static + test + benchmark
# smoke suite; exits non-zero on the first failure.
#
#   ./ci.sh          # gofmt, vet, build, race tests, benchmark smoke
#   ./ci.sh -short   # skip the benchmark smoke pass and the trace smoke
#                    # (the quick report, the CLI smoke and the examples
#                    # smoke still run)
set -eu

echo "== gofmt =="
# Every Go file of the repo and of the bench/ module, skipping dot
# directories (.bench_build holds the benchmark's build cache).
unformatted=$(find . -name '*.go' -not -path './.*' -exec gofmt -l {} +)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# Race detector over every package, twice: at the host's default
# GOMAXPROCS and at GOMAXPROCS=2, where the parallel experiment runner's
# workers really run at the same time (the fault, cache, raft, tenant and
# trace sweeps fan hermetic cells across workers; placement memos and
# interned names fill lazily). A sharded engine runs its shards on the
# caller's goroutine, so nothing else in the simulator runs concurrently.
# The blanket runs cover every package's own tests, so no targeted race
# stage can drift out of step with them. -count=1 defeats the test cache.
echo "== go test -race =="
go test -race -count=1 ./...
echo "== go test -race (GOMAXPROCS=2) =="
GOMAXPROCS=2 go test -race -count=1 ./...

# The benchmark is its own module (bench/, replace repro => ../), so the
# runs above skip it. It drives the public core API and maps span names to
# layers; vet and test it here so an API change or an unmapped span fails
# CI rather than only the benchmark run. Runs under -short too.
echo "== bench module (vet + test) =="
(cd bench && go vet ./... && go test -count=1 ./...)

# Fuzz seed corpora, run as plain tests (the f.Add cases only) — cheap
# enough for every CI run, -short included:
#   - trace encoder: arbitrary span names, IDs and (possibly negative)
#     times encode to valid JSON that round-trips decode/re-encode
#     idempotently;
#   - lsvd extent index: random overlapping insert/lookup sequences
#     cross-checked against a flat shadow map;
#   - gf256 fused kernel: length 0, sub-block, non-multiple-of-32 tails,
#     misalignment;
#   - faults retry backoff: bounds (jitter in [base, cap]), nil-rng
#     upper-edge dominance, and same-seed replay;
#   - raft wire codec;
#   - stack spec grammar: every string parses to a spec that validates
#     and builds, or is rejected with an error (never a panic).
echo "== trace encoder fuzz seeds =="
go test -run 'Fuzz' ./internal/trace/
echo "== lsvd extent-index fuzz seeds =="
go test -run 'Fuzz' ./internal/lsvd/
echo "== gf256 fuzz seeds =="
go test -run 'Fuzz' ./internal/gf256/
echo "== faults backoff fuzz seeds =="
go test -run 'Fuzz' ./internal/faults/
echo "== raft codec fuzz seeds =="
go test -run 'Fuzz' ./internal/raft/
echo "== stack spec fuzz seeds =="
go test -run 'Fuzz' ./internal/core/

if [ "${1:-}" != "-short" ]; then
    # One iteration of every benchmark with allocation counts: catches
    # bit-rot in the perf harness and regressions in the zero-alloc
    # invariants without a full measurement run.
    echo "== benchmark smoke (-benchtime=1x) =="
    go test -run '^$' -bench . -benchtime=1x -benchmem ./...
fi

# One quick-scale report: every registry family run serially and at the
# default parallelism. It is the serial/parallel determinism gate (every
# family's two digests must match each other and its golden pin) and the
# acceptance gate (every family's Check must pass), so it runs under -short
# too. Outputs go to a scratch
# directory: CI rewrites no tracked file.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
echo "== delibabench report (quick: determinism + checks) =="
go run ./cmd/delibabench -quick -report "$tmp/report.json"

# CLI smoke: the cmd/ packages have no tests, so drive deliba-fio's -stack
# parser and -profile path end to end on every named stack, the +ec and
# +repl-raft extensions, the cache tier on the software client and a QoS
# elevator on the card path (the cache-target and QoS branches of the
# io_uring builder), one layer-token hybrid, and one spec the validator
# must reject (DeLiBA-1 has no EC accelerators).
echo "== CLI smoke (deliba-fio -stack ... -profile) =="
go build -o "$tmp/deliba-fio" ./cmd/deliba-fio
for spec in deliba-1-hw deliba-2-sw deliba-2-hw deliba-k-sw deliba-k-hw \
    deliba-k-hw+ec deliba-k-hw+repl-raft deliba-k-sw+cache-lsvd \
    deliba-k-hw+qos-dmclock iouring,dmq-bypass,qdma,hls-crush,card-rtl; do
    "$tmp/deliba-fio" -stack "$spec" -profile -ops 200 > "$tmp/fio.out"
    head -n 1 "$tmp/fio.out"
done
# Two workload shapes beyond the default random read: a 50/50 mix on the
# EC card path (the EC write and read fan-out) and sequential writes on
# DeLiBA-1 (its host-side fan-out and fio's per-job sequential segments).
"$tmp/deliba-fio" -stack deliba-k-hw+ec -rw rw:50 > "$tmp/fio.out"
head -n 2 "$tmp/fio.out"
"$tmp/deliba-fio" -stack deliba-1-hw -rw write > "$tmp/fio.out"
head -n 2 "$tmp/fio.out"
if "$tmp/deliba-fio" -stack deliba-1-hw+ec -profile -ops 200 > "$tmp/fio.out" 2>&1; then
    echo "deliba-fio accepted the invalid spec deliba-1-hw+ec"
    exit 1
fi
# dfxtool's live RM swap loop: three partial reconfigurations, each waited
# on through the shell's callback LoadDynKernel.
echo "== CLI smoke (dfxtool -exercise) =="
go run ./cmd/dfxtool -exercise > "$tmp/dfx.out"
tail -n 1 "$tmp/dfx.out"

# Examples smoke: the examples have no tests, so run each one; an example
# that stops building or exits non-zero fails CI. Runs under -short too.
echo "== examples smoke (go run examples/*/) =="
for dir in examples/*/; do
    echo "$dir"
    go run "./$dir" > "$tmp/example.out"
done

if [ "${1:-}" != "-short" ]; then
    # Trace smoke: emit the traced sweep and validate it against the
    # Chrome/Perfetto trace_event schema with the offline tool.
    echo "== trace smoke (-trace + dfxtool trace validate) =="
    go run ./cmd/delibabench -quick -trace "$tmp/trace.json"
    go run ./cmd/dfxtool trace validate "$tmp/trace.json"
    go run ./cmd/dfxtool trace summary "$tmp/trace.json"
fi

echo "CI OK"
