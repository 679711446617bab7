#!/usr/bin/env bash
# Builds the ledgerbench benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash ledgerbench/run.sh --workload cluster-rename --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/bin"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/gotmp
export GOMODCACHE=$out/gomod
export GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export CGO_ENABLED=0

go -C ledgerbench build -o "$out/bin/ledgerbench" .
exec "$out/bin/ledgerbench" -out "$out/ledgerbench" "$@"
