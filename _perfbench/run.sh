#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash _perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#   bash _perfbench/run.sh compare <results-dir-a> <results-dir-b>
#
# Everything the build and the runs leave behind stays under
# ${CARGO_TARGET_DIR:-.bench_build} in the current directory: the Go build
# cache, the binary, per-run result files, span dumps and scratch caches.
set -euo pipefail

if [[ ! -f go.mod || ! -f _perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (need go.mod and _perfbench/go.mod)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

# A hermetic, offline build: the module has no dependencies beyond the
# repository itself, so nothing may be fetched.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C _perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-results" "$@"
