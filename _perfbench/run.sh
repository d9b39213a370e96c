#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash _perfbench/run.sh --workload sedov-campaign --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and trace file stays under .bench_build/ in the
# current directory. The build fails (non-zero exit, no result line) when the
# repository around _perfbench/ is missing.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
