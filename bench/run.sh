#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build leaves behind stays in .bench_build of the checkout:
# the binary, the Go build cache, and the go command's own counters and
# module directory, which it would otherwise keep under $HOME.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -C "$root/bench" -o "$build/pgsim-bench" .
cd "$root"
exec "$build/pgsim-bench" "$@"
