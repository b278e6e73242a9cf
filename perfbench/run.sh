#!/usr/bin/env bash
# Builds the benchmark and the eventorderd server from source into
# .bench_build/ at the root of the checkout, then runs the benchmark there
# with the given arguments, for example:
#
#   bash perfbench/run.sh --workload matrix-scale --seed 1 --seconds 20 --trace 0
#
# Every build and run output stays under .bench_build/. The build fails, and
# the script exits non-zero without a result, when the eventorder module is
# not next to this directory.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	GOTELEMETRY=off

(
	cd "$bench_dir"
	go build -buildvcs=false -o "$build/bin/perfbench" .
	go build -buildvcs=false -o "$build/bin/eventorderd" eventorder/cmd/eventorderd
) >&2

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
cd "$root"
exec "$build/bin/perfbench" -eventorderd "$build/bin/eventorderd" \
	-out "$build/perfbench" -testdata "$root/testdata" -commit "$commit" "$@"
