#!/usr/bin/env bash
# Builds hydrabench from source and runs it; run from the repository root:
#
#   bash bench/run.sh --workload serve_hot --seed 3 --seconds 8 --trace 0
#
# Everything the build writes (the binary, the Go build cache, and the
# toolchain's own counters under its config directory) stays under
# .bench_build/ in the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/hydrabench" .)
exec "$build/hydrabench" "$@"
