#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source into
# .bench_build/ at the root of the checkout and run it with the caller's
# arguments. Everything the Go toolchain writes (build cache, temporaries)
# is kept under .bench_build/ too, so a run reads and writes only inside
# the checkout it was started from. `go run ./benchmark ...` works as well;
# it just uses the user's own Go caches.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
