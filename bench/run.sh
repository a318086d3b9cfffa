#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments.
# Everything the Go toolchain writes (build cache, module cache, its
# config directory) is pointed inside .bench_build so a run touches
# nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

(cd "$root/bench" && go build -o "$build/crono-benchmark" .) >&2
exec "$build/crono-benchmark" "$@"
