#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root:
#
#   bash benchmark/run.sh --workload kernel-1024 --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, Go config) stays under
# .bench_build/ in the current directory. The build needs the repository's
# own packages (the module at ..), so outside a full checkout it fails and
# the script exits non-zero before printing anything on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

mkdir -p "$build"
(cd "$src" && go build -o "$build/odrl-benchmark" .) >&2
exec "$build/odrl-benchmark" "$@"
