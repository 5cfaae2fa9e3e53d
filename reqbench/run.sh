#!/usr/bin/env bash
# run.sh — build the reqlens benchmark from source and run it once.
#
#   bash reqbench/run.sh --workload cache-steady --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a reqlens checkout. The binary, the Go build
# cache and the traced runs' profiles go under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout; nothing is fetched over
# the network. The first run in a checkout compiles the standard
# library into that cache; later runs only relink.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/bin"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" GOPROXY=off \
    GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"

(cd reqbench && go build -o "$out/bin/reqbench" .)
exec "$out/bin/reqbench" "$@"
