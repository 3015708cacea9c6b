#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload transpose-run|lu-sweep|dsmd-mix \
#        --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the binary, dsmd's temporary store, span and CPU profile
# files) goes under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/home"

# Keep the go command's caches and temporary files inside the build
# directory, build offline with the installed toolchain only.
export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export TMPDIR=$out/tmp HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
