#!/usr/bin/env bash
# Builds the mlpart end-to-end benchmark, cmd/mlpartd and cmd/statscheck
# from the source tree that holds this directory, then runs the
# benchmark with every argument passed through:
#
#   bash e2ebench/run.sh --workload lib-bipart --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --workload svc-small --seed 1 --seconds 20 --repeat 10
#
# Build products, the Go build cache and run files all stay under
# .bench_build/ at the root of the tree.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$bench")
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mlpartd" ]; then
	echo "e2ebench: no mlpart source tree at $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$bench" && go build -o "$out/bin/" . mlpart/cmd/mlpartd mlpart/cmd/statscheck) >&2
exec "$out/bin/e2ebench" -bin "$out/bin" -work "$out/run" -spec "$root/BENCHMARK.json" "$@"
