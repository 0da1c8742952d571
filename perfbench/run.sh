#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload shuffle-heavy --seed default --seconds 20 --trace 0
#
# Build outputs, the Go build and module caches, the go command's
# configuration directory and temporary files all stay under
# .bench_build/ in the working directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOSUMDB=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
