#!/usr/bin/env bash
# Builds cmd/hyrec-server from this checkout and the benchmark (generator
# and traced host), then runs the generator with the given arguments:
#
#   bash hyrecbench/run.sh --workload visit --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Build caches and binaries stay under
# .bench_build/ in the checkout; build output goes to standard error so
# the last line of standard output stays the result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/hyrec-server" ./cmd/hyrec-server 1>&2
(cd "$root/hyrecbench" && go build -o "$out/bin/hyrecbench" . && go build -o "$out/bin/tracehost" ./tracehost) 1>&2
exec "$out/bin/hyrecbench" --server "$out/bin/hyrec-server" --host "$out/bin/tracehost" "$@"
