#!/bin/sh
# Builds the repository benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   sh bench/run.sh --workload cold-study --seed 1 --seconds 20 --trace 0
#   sh bench/run.sh --seed 1                      # every workload, one child each
#   sh bench/run.sh compare parent.jsonl change.jsonl
#
# The Go build cache, the build's temporary files, the binary, and
# everything a run writes (result stores, span files) stay under
# .bench_build/ in the root; nothing is fetched over the network.
set -eu
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/cloudhpc-bench" .)
exec "$out/cloudhpc-bench" "$@"
