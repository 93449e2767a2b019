#!/usr/bin/env bash
# The command BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ inside the checkout and runs it with the driver's
# arguments. go's build cache, scratch space and configuration directory
# are pointed there too, so nothing is written outside the checkout.
# Telemetry is switched off in that configuration directory first: in its
# default "local" mode the go command starts a detached reporting child
# that outlives it, and a run may leave no process behind.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -o "$build/tagmatch-bench" ./bench >&2
exec "$build/tagmatch-bench" "$@"
