#!/usr/bin/env bash
# Builds the photoloop benchmark from the checkout this script sits in and
# runs it. Every build product, Go cache and scratch file stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload figs --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
exec "$build/perfbench" -work "$build" "$@"
