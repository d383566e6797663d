#!/usr/bin/env bash
# Builds the benchmark harness from this tree and runs it. Everything the
# build and the run leave behind stays under <checkout>/.bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/tmp"
export XDG_CONFIG_HOME="$work/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local
export TMPDIR="$work/tmp"
(cd "$root/benchmark" && go build -o "$work/bin/hvbench" .)
if [ "${1:-}" = compare ]; then
  exec "$work/bin/hvbench" "$@"
fi
exec "$work/bin/hvbench" -root "$root" "$@"
