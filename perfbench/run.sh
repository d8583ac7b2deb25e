#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload analysis-wan --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, records, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench.bin" .) >&2
exec "$build/perfbench.bin" "$@"
