#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the repository root and runs
# it with the given flags, e.g.
#
#   bash bench/run.sh --workload census --seed 1 --seconds 30 --trace 0
#
# The Go build cache and config live under .bench_build/ too, so a run
# writes nothing outside the checkout.  Build output goes to stderr.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/realsum-bench" .) >&2
exec "$out/realsum-bench" "$@"
