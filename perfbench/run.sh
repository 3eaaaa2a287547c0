#!/usr/bin/env bash
# Builds the PERSEAS benchmark from this checkout's sources and runs it.
# Run it from the repository root; every argument passes through:
#
#   bash perfbench/run.sh --workload remote-1 --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the span files all stay under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
