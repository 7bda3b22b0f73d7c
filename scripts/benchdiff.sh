#!/usr/bin/env bash
# benchdiff.sh — A/B benchmarks between a baseline git ref and the
# working tree.
#
# Usage: scripts/benchdiff.sh [-n pairs] [-b benchregex] [-p pkg] [baseline-ref]
#        scripts/benchdiff.sh -e [-n pairs] [-x "exp-args"] [baseline-ref]
#
# Default (micro) mode runs `go test $pkg -bench` in interleaved A/B
# pairs (baseline first, working tree second) so slow drift of the
# machine's background load hits both sides equally, then reports with
# benchstat when it is on PATH. Without benchstat the raw outputs are
# left in benchdiff-{old,new}.txt for manual comparison.
#
# End-to-end mode (-e) builds cmd/adios-bench in both trees and times
# alternating whole runs (default `-exp shards -short`), reporting the
# per-pair wall-clock seconds, the per-side medians, and the ratio.
#
# This is a working tool. A performance claim is made with the
# repository benchmark: BENCHMARK.json names it, and benchmark/README.md
# ("Claiming a gain in a later PR") gives the pair protocol and the
# -compare check. BENCH_sim.json is history and is no longer added to.
#
# The baseline is materialized with `git worktree` — no network, no
# stashing; uncommitted changes in the working tree are measured as-is.
set -euo pipefail

pairs=5
bench='.'
pkg=./internal/sim
e2e=0
expargs="-exp shards -short -seed 1"
while getopts "n:b:p:x:e" opt; do
  case $opt in
  n) pairs=$OPTARG ;;
  b) bench=$OPTARG ;;
  p) pkg=$OPTARG ;;
  x) expargs=$OPTARG ;;
  e) e2e=1 ;;
  *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
ref=${1:-HEAD}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$tmp/base" "$ref" >/dev/null 2>&1

if [ "$e2e" = 1 ]; then
  echo "building adios-bench: A=$ref, B=worktree" >&2
  (cd "$tmp/base" && go build -o "$tmp/bench-old" ./cmd/adios-bench)
  (cd "$root" && go build -o "$tmp/bench-new" ./cmd/adios-bench)

  # secs CMD... — wall-clock seconds of one run, output discarded.
  secs() {
    local t0 t1
    t0=$(date +%s%N)
    "$@" $expargs >/dev/null
    t1=$(date +%s%N)
    awk -v d=$((t1 - t0)) 'BEGIN { printf "%.3f", d / 1e9 }'
  }

  old_times=()
  new_times=()
  wins=0
  for i in $(seq "$pairs"); do
    a=$(secs "$tmp/bench-old")
    b=$(secs "$tmp/bench-new")
    old_times+=("$a")
    new_times+=("$b")
    faster=$(awk -v a="$a" -v b="$b" 'BEGIN { print (b < a) ? 1 : 0 }')
    wins=$((wins + faster))
    echo "pair $i/$pairs: baseline ${a}s  worktree ${b}s"
  done

  median() {
    printf '%s\n' "$@" | sort -n | awk '{ v[NR] = $1 }
      END { print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
  }
  mo=$(median "${old_times[@]}")
  mn=$(median "${new_times[@]}")
  awk -v mo="$mo" -v mn="$mn" -v w="$wins" -v n="$pairs" 'BEGIN {
    printf "medians: baseline %.3fs, worktree %.3fs, speedup %.2fx; worktree faster in %d/%d pairs\n",
      mo, mn, mo / mn, w, n }'
  exit 0
fi

old="$tmp/old.txt"
new="$tmp/new.txt"
for i in $(seq "$pairs"); do
  echo "pair $i/$pairs (A=$ref, B=worktree)" >&2
  (cd "$tmp/base" && go test "$pkg" -run '^$' -bench "$bench" -benchmem -count=1) >>"$old"
  (cd "$root" && go test "$pkg" -run '^$' -bench "$bench" -benchmem -count=1) >>"$new"
done

if command -v benchstat >/dev/null 2>&1; then
  benchstat "$old" "$new"
else
  cp "$old" "$root/benchdiff-old.txt"
  cp "$new" "$root/benchdiff-new.txt"
  echo "benchstat not on PATH; raw outputs in benchdiff-old.txt / benchdiff-new.txt" >&2
fi
