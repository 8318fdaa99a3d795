#!/usr/bin/env bash
# Builds ntiperf from the sources of this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash bench/run.sh --workload lan-32 --seed 1998 --seconds 20 --trace 0
#
# Every build and run output (Go build cache, temp files, the binary,
# ledgers, profiles) stays under .bench_build/ in the checkout. The
# script fails without printing a result when the simulator sources are
# missing.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS= PPROF_TMPDIR="$out/tmp"

(cd "$root/bench" && go build -o "$out/ntiperf" ./ntiperf)
cd "$root"
exec "$out/ntiperf" "$@"
