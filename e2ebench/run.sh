#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload emp-analytic --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache and temporary files, the go
# command's configuration and telemetry directory, traces and result
# files all go under .bench_build/e2ebench, so nothing is written outside
# the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/e2ebench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

# The benchmark module replaces "snapk" with the parent directory, so the
# build fails (and no result is printed) when the repository sources are
# not next to it.
(cd e2ebench && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
