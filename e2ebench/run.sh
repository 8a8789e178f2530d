#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload pair_type --seed 1 --seconds 10 --trace 0
#
# The build and its cache stay under .bench_build/ in the repository, so a
# fresh checkout's first run also compiles the standard library it needs.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the repository root: go.mod, internal/ or e2ebench/go.mod is missing" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
