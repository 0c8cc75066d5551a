#!/usr/bin/env bash
# Builds the SC-Share benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep-fig7a --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, Go's own config and telemetry files) stays under .bench_build in
# that root; results and traces are written to .bench_build/results.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/gotmp" "${build}/home"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/gotmp" GOPATH="${build}/gopath" \
    HOME="${build}/home" XDG_CONFIG_HOME="${build}/home" XDG_CACHE_HOME="${build}/home" \
    GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
(cd "${here}" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --root "${root}" "$@"
