#!/usr/bin/env bash
# Builds heteromixd and the benchmark from this checkout into
# .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload frontier_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the build and the run write
# stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/heteromixd" ./cmd/heteromixd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/heteromixd" -out "$out" "$@"
