#!/usr/bin/env bash
# Builds the benchmark into benchmark/.build/ (once: later runs find it up to
# date) and runs it from the root of the checkout with the arguments given.
# The Go build cache, temporary files and the toolchain's own counters
# (under XDG_CONFIG_HOME) are kept there too, so that a run writes nothing
# outside its checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
