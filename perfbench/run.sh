#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments go to the benchmark, for example
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
# The binary, the Go build cache and configuration, spans and profiles all
# stay in .bench_build/: nothing is written outside the repository.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/mod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
