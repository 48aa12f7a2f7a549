#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root:
#
#   bash bench/run.sh --workload event-gnp --seed 1 --seconds 20 --trace 0
#
# The build cache, the go command's own config and telemetry files,
# temporary files and the binary all stay under .bench_build/ in the
# current directory; nothing is downloaded.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
(
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
	export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
	cd bench
	go build -o "$out/overlaybench" .
)
exec "$out/overlaybench" "$@"
