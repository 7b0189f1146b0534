#!/usr/bin/env bash
# Builds gpad and gpabench from the checkout in the current directory,
# then runs gpabench with the given arguments:
#
#   bash gpabench/run.sh --workload table3-offline --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache lands under .bench_build/, so the
# benchmark writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gpad" || ! -f "$root/DRIFT.txt" ]]; then
	echo "gpabench: run from the root of a gpa source checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
go build -o "$build/bin/gpad" ./cmd/gpad >&2
go -C gpabench build -o "$build/bin/gpabench" . >&2
exec "$build/bin/gpabench" -root "$root" -gpad "$build/bin/gpad" "$@"
