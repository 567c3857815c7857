#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload:
#
#   bash e2ebench/run.sh --workload paper-irregular --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# span files stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout; nothing is fetched, so a missing repository module is a build
# error and a non-zero exit.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
mkdir -p "$GOTMPDIR"

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out-dir "$build" "$@"
