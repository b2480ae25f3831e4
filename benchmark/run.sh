#!/usr/bin/env bash
# Builds the benchmark from source and runs it. With no arguments it runs
# every workload, untraced then traced; any arguments go to the binary
# (-workload, -seed, -seconds, -trace, -smoke, -selfcheck, ...; see
# benchmark/README.md). The acceptance driver calls it from the root of a
# checkout as
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes stays inside the checkout, under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# -buildvcs=auto stamps the git revision into the binary (the result files
# record it); where the VCS cannot be queried the build goes without.
(cd "$here" && { go build -o "$build/graphfly-benchmark" . || go build -buildvcs=false -o "$build/graphfly-benchmark" .; })
cd "$root"
exec "$build/graphfly-benchmark" "$@"
