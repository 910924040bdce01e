#!/usr/bin/env bash
# Builds the repository benchmark and the trace checker from the source in
# this checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload tpch-olap --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files,
# extracts, traces) stays under the build directory, $CARGO_TARGET_DIR
# when set, else .bench_build, relative to the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
go build -o "$build/tracecheck" ./scripts/tracecheck

exec "$build/perfbench" -work "$build" -tracecheck "$build/tracecheck" "$@"
