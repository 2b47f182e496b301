#!/usr/bin/env bash
# Builds the platform benchmark from the sources of the checkout it sits in
# and runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload edge_ips --seed 1 --seconds 20 --trace 0
#
# Every build artefact and Go cache lands under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)

rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$build/perfbench" -rev "$rev" "$@"
