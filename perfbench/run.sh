#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument on:
#
#   bash perfbench/run.sh --workload wire-open --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's temporary files and its
# configuration directory (telemetry) stay inside the checkout, under
# .bench_build; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=unknown
if [ -e "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
