#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload build|serve|fleet --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build leaves behind (the Go
# build cache, the go command's own state under HOME, and the binary) stays
# under .bench_build in the current directory. A failed build exits non-zero
# before anything is printed on standard output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(
	cd "$root/perfbench"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/home/go" \
		go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" -workdir "$out" "$@"
