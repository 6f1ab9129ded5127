#!/usr/bin/env bash
# Builds sptd and the perfbench load generator from this checkout, then runs
# one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-programs --seed 1 --seconds 10 --trace 0
#
# Everything it builds, caches or writes lands under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/sptd ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/sptd and perfbench/ are missing here)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# A checkout-local build cache: sptd's native-capture module builds reuse it,
# and each run hands its daemons a hardlinked copy (see perfbench/env.go).
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/sptd" ./cmd/sptd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -sptd "$out/sptd" "$@"
