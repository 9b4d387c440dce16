#!/usr/bin/env bash
# Builds ringsimd and perfbench from the tree under test, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload svc-miss --seed 1 --seconds 12 --trace 0
#
# Everything it writes stays under .bench_build/ in the repository.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ringsimd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a flexsnoop checkout" >&2
	exit 2
fi
root=$(pwd)
out=$root/.bench_build/perfbench
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOMAXPROCS=2 TMPDIR=$out
go build -o "$out/bin/ringsimd" ./cmd/ringsimd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -ringsimd "$out/bin/ringsimd" -out "$out" "$@"
