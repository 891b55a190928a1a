#!/usr/bin/env bash
# Builds the benchmark program in perfbench/ and runs it from the
# repository root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload cold-corpus --seed 1 --seconds 55 --trace 0
#
# All build output (Go build cache, binaries, generated inputs, span
# files) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" --root "$root" --out "$out" "$@"
