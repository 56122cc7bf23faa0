#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache, temp
# files and binary all stay inside the checkout) and runs it with the
# given arguments. Rebuilds only when a Go source file is newer than the
# binary, so repeated runs pay the build once.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
bin="$build/simaibench-benchmark"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name 'go.mod' -o -name 'expected.json' \) -newer "$bin" -print -quit)" ]; then
	(cd "$bench" && go build -o "$bin" .) >&2
fi
cd "$root"
exec "$bin" "$@"
