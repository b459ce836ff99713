#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload query-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C bench build -o "$out/chameleon-bench" .
exec "$out/chameleon-bench" "$@"
