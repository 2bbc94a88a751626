#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload regen_cold --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, results, traces, the
# serve_mixed store) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
(
	cd "$root/e2ebench"
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/e2ebench" . >&2
)
exec "$out/e2ebench" "$@"
