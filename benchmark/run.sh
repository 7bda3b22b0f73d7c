#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# into .bench_build/ at the root of the checkout and runs it with the
# arguments given, so that neither the build nor the run reads or
# writes anything outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With a fresh config directory the go command starts a detached
# telemetry child that outlives it, also when the build fails. The mode
# file turns that off: after this script nothing it started is running.
echo off > "$build/config/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
