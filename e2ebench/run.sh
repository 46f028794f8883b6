#!/usr/bin/env bash
# Builds shapleyd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload hot-read --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/shapleyd" ./cmd/shapleyd
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -shapleyd "$out/shapleyd" -out "$out/runs" "$@"
