#!/usr/bin/env bash
# Builds spantreed and the load generator from the checkout this script sits
# in, then runs one benchmark workload and prints its JSON result as the last
# line of standard output.
#
#   bash perfbench/run.sh --workload fresh-n96 --seed 1 --seconds 20 --trace 0
#
# A change meant to alter the sampled output regenerates the committed
# golden lines (see perfbench/check.go) with
#
#   bash perfbench/run.sh -write-golden perfbench/golden.ndjson
#
# Everything the build writes (Go build cache, binaries, temp files) stays
# under .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace | -trace) trace="${args[i + 1]:-0}" ;;
	--trace=* | -trace=*) trace="${args[i]#*=}" ;;
	esac
done

cd "$root"
go build -o "$out/spantreed" ./cmd/spantreed
cd "$root/perfbench"
go build -o "$out/perfbench" .
layers=""
if [ "$trace" != "0" ]; then
	go build -o "$out/perfbench-layers" ./layers
	layers="$out/perfbench-layers"
fi
cd "$root"
exec "$out/perfbench" -spantreed "$out/spantreed" -layers "$layers" "$@"
