#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Run it from the
# repository root:
#
#   bash benchmark/run.sh -workload fig8-solo -seed 1 -seconds 20
#
# The Go build cache, temporary build files and the binary all live under
# .bench_build in the current directory, so the run writes nowhere else.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
