#!/usr/bin/env bash
# End-to-end jettyd benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload single --seed 1 --seconds 10 --trace 0
#
# Builds jettyd, jettysweep and the load generator from this checkout's
# sources into .bench_build/ (the Go build cache included, so nothing is
# written outside the checkout), then runs one benchmark invocation. The
# last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 GOENV=off

go build -buildvcs=false -o "$out/jettyd" ./cmd/jettyd
go build -buildvcs=false -o "$out/jettysweep" ./cmd/jettysweep
go -C e2ebench build -buildvcs=false -o "$out/e2ebench" .

exec "$out/e2ebench" -bin "$out" "$@"
