#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from anywhere; it works in the checkout that contains it:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, the binary, scratch stores, traces,
# CPU profiles and the results ledger.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

cd "$root/perfbench"
go build -o "$build/bin/perfbench" .
cd "$root"
exec "$build/bin/perfbench" "$@"
