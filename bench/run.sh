#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (Go's build cache too, so nothing is written outside the checkout) and
# runs it. Arguments go to the benchmark; see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/rwpbench" .
exec "$build/rwpbench" -out "$here/out" "$@"
