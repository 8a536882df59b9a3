#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (its own module)
# with every Go cache inside the checkout, then runs it. The benchmark
# itself builds cmd/aggserve the same way on first use.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
go build -C "$here" -o "$out/bin/bench" .
exec "$out/bin/bench" "$@"
