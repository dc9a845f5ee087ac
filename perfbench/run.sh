#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload dag-sessions --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary sockets, span files) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the current directory.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/spans"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off # the build needs nothing from outside the checkout

src="$(cd "$(dirname "$0")" && pwd)"
(cd "$src" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --span-dir "$build/spans" "$@"
