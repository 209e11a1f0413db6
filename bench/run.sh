#!/usr/bin/env bash
# Builds mkperf from the checkout's sources and runs it with the given
# arguments, for example:
#
#   bash bench/run.sh --workload unmap32 --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, temporaries, the go command's
# configuration and telemetry, the binary) stays under .bench_build/ at the
# root of the checkout. The build needs the repository's own go.mod one level
# up; without it the script fails before printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# Build under a private name and rename into place, so concurrent runs never
# execute a half-written binary.
bin="$out/mkperf.$$"
(cd "$root/bench" && go build -buildvcs=false -o "$bin" ./mkperf)
mv -f "$bin" "$out/mkperf"
exec "$out/mkperf" "$@"
