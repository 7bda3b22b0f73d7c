#!/usr/bin/env bash
# swarmcover.sh — statement coverage that the armed seed swarm reaches
# in the six core packages (paging, sched, rdma, migrate, sim, memnode).
#
# Usage: scripts/swarmcover.sh [adios-check flags]
#        (default: -n 2000 -short -seed 1)
#
# Builds cmd/adios-check with -cover into a temporary directory, runs
# it with GOCOVERDIR set, and prints `go tool covdata percent` per
# package, then every function of those packages at 0 % (`covdata
# textfmt` through `go tool cover -func`). -coverpkg names the main
# package too: a binary whose -coverpkg leaves main out writes no
# counter files. Nothing is written in the tree.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
[ $# -gt 0 ] || set -- -n 2000 -short -seed 1
core=paging,sched,rdma,migrate,sim,memnode
pkgs=$(echo "$core" | sed 's#[^,]*#repro/internal/&#g')

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/cov"
go build -cover -coverpkg="./cmd/adios-check,$(echo "$core" | sed 's#[^,]*#./internal/&#g')" \
	-o "$tmp/adios-check" ./cmd/adios-check
GOCOVERDIR="$tmp/cov" "$tmp/adios-check" "$@" | tail -n 1
go tool covdata percent -i "$tmp/cov" -pkg "$pkgs"
go tool covdata textfmt -i "$tmp/cov" -pkg "$pkgs" -o "$tmp/cover.out"
echo "functions at 0%:"
go tool cover -func "$tmp/cover.out" | awk '$NF == "0.0%" { print "  " $1 " " $2 }'
