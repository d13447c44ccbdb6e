#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload hsc_fd_dnn268m --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, telemetry) stays under .bench_build/ in the current directory. The
# benchmark is its own module and builds against the repository one level
# up, so it fails with a non-zero exit when that repository is absent.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"

if [[ ! -f "$here/../go.mod" ]]; then
	echo "perfbench: no Go module at $here/..; run from a full checkout of the repository" >&2
	exit 1
fi

mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
