#!/usr/bin/env bash
# The benchmark's entry point, run from the root of a checkout:
#
#   bash bench/run.sh --workload kv-remote --seed 1 --seconds 20 --trace 0
#
# It builds pxmark from source into .bench_build/ (first call only does real
# work; the Go build cache lives there too, so nothing is written outside the
# checkout) and hands its arguments to it. Without arguments pxmark runs the
# whole suite; see bench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
build=.bench_build
mkdir -p "$build"
export GOCACHE="$PWD/$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C bench -o "../$build/pxmark" ./pxmark
exec "$build/pxmark" "$@"
