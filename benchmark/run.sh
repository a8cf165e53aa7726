#!/usr/bin/env bash
# Builds the benchmark from the tree and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, binaries, telemetry) is
# kept under .bench_build/ in the checkout, so a run touches nothing outside.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
