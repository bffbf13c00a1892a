#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload kv-read --seed 1 --seconds 30 --trace 0
#
# Build outputs (the binary, the Go build cache, the traced run's span
# files) go under $CARGO_TARGET_DIR, default .bench_build, inside the
# checkout. The module builds against the repository around it, so in a
# directory holding only the benchmark the build fails and nothing runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-tmp"

# Keep every file the go command writes (build cache, temporary work
# directories, its configuration and telemetry) inside the checkout.
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp \
	XDG_CONFIG_HOME=$out/go-config GOTOOLCHAIN=local GOWORK=off
(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" --out-dir "$out" "$@"
