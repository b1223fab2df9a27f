#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload optimize --seed 1 --seconds 20 --trace 0
#
# Build outputs (the binary, the Go build cache, traced-run span files)
# go under $CARGO_TARGET_DIR, default .bench_build at the root.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
