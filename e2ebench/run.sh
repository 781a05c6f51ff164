#!/bin/sh
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given flags. Run from the repository root:
#
#	sh e2ebench/run.sh --workload paper-tables --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the compiler's temporary files, the binary
# and the campaign server's disk cache.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" -tmp "$out/tmp" "$@"
