#!/usr/bin/env bash
# Build the benchmark from source inside the checkout and run it with the
# arguments given: this is BENCHMARK.json's command. The binary and Go's
# build cache both live under .bench_build/ at the checkout's root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$root/.bench_build"
export GOCACHE="${GOCACHE:-$root/.bench_build/go-cache}"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -C "$root/bench" -o "$root/.bench_build/bench" .
cd "$root"
exec "$root/.bench_build/bench" "$@"
