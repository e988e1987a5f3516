#!/usr/bin/env bash
# Builds rdmadl-bench from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given arguments.
# Everything the Go toolchain writes — build cache, temporary files, the
# binary — stays inside .bench_build/.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/rdmadl-bench" .)
exec "$build/rdmadl-bench" "$@"
