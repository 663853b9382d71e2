#!/usr/bin/env bash
# Builds bivbench from source and runs it with the given arguments, from
# the root of a checkout:
#
#	bash bench/run.sh --workload corpus --seed 0 --seconds 30 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the checkout: the Go build cache, temporary build directories and
# the bivd binary the serve workload starts. No module is downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

go -C bench build -o "$build/bin/bivbench" ./cmd/bivbench
exec "$build/bin/bivbench" "$@"
