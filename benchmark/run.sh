#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source inside
# the checkout (Go build cache included, so nothing is written outside it),
# then run it from the checkout root with the driver's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
