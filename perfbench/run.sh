#!/usr/bin/env bash
# Builds the perfbench program from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-long --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and the benchmark's working files all
# stay under .bench_build (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the config directory) inside the build
# directory, and build offline with the local toolchain.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_DIR=$out
exec "$out/perfbench" "$@"
