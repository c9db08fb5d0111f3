#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload chaos-mix --seed 1 --seconds 10 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the
# checkout (override with CARGO_TARGET_DIR), so nothing outside the
# checkout is written.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS="-mod=readonly"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --refdir "$build/perfbench-ref" "$@"
