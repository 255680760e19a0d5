#!/usr/bin/env bash
# Builds the serve-path benchmark from this checkout's sources and runs
# it, passing every argument through:
#
#   bash servebench/run.sh --workload table1-warm --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the traced run's span files all go under .bench_build/ in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
