#!/usr/bin/env bash
# Builds dpmg-server and the perfbench program from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload zipf-tcp-ingest --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and per-run state stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dpmg-server" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a dpmg checkout (go.mod, cmd/dpmg-server and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

go build -o "$build/bin/dpmg-server" ./cmd/dpmg-server
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -server "$build/bin/dpmg-server" -workdir "$build/runs" "$@"
