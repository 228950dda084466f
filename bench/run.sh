#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload serial-s3330-wpd --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, temporary files, the binary) stays
# under .bench_build/ at the checkout root; nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/simevo-ladder" .)
exec "$out/simevo-ladder" "$@"
