#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the run files all stay under
# .bench_build/ in the checkout; the last line of standard output is the
# JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-tmp"
export GOPATH="$out/gopath" GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off
# Fall back to the official install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
