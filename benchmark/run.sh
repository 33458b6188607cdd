#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark (its own module, under
# benchmark/) and run it from the checkout root with the driver's flags.
# Everything the build writes — binaries, Go's build cache, temporary files
# and its telemetry counters (kept under the user config dir) — stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
