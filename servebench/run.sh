#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash servebench/run.sh --workload engine-query --seed 1 --seconds 15 --trace 0
#
# Every build artefact, cache and result file stays under .bench_build (or
# $CARGO_TARGET_DIR when set) inside the working directory, and no module is
# fetched from the network.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -out "$out/results" "$@"
