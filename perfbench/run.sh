#!/usr/bin/env bash
# Builds the benchmark driver from this checkout and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload sgl-budget --seed 1 --seconds 20 --trace 0
#
# perfbench/ is a Go module of its own that imports the repository
# module through a local replace, so the driver always measures the
# code next to it. The binary and the Go build cache live under
# .bench_build/, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
  GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
