#!/usr/bin/env bash
# Builds the benchmark and the simulator it drives from source, then runs it
# with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload dk-hw-rand --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
