#!/usr/bin/env bash
# benchdiff.sh — A/B benchmarks between a baseline git ref and the
# working tree.
#
# Usage: scripts/benchdiff.sh [-n pairs] [-b benchregex] [-p pkg] [baseline-ref]
#        scripts/benchdiff.sh -e [-n pairs] [-x "exp-args"] [baseline-ref]
#        scripts/benchdiff.sh -r [-n pairs] [-w workload] [-s seed] [baseline-ref]
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
# Repository-benchmark mode (-r) is the pair protocol of
# benchmark/README.md ("Claiming a gain in a later PR"): it builds
# ./benchmark once in each tree and runs interleaved pairs of
# `-workload W -seed S -seconds 10 -trace 0` (default micro-resident,
# seed 1, 10 pairs), then prints one table row (for the change's CHANGES.md entry) per
# end-to-end metric — both sides' median [quartiles], change ÷ parent,
# pairs the change won, and how far apart the medians are in parent
# interquartile ranges. It exits 1 if a run is not correct or a
# simulated metric differs between the sides.
#
# -e and -r alternate which side of a pair runs first.
#
# The baseline is unpacked with `git archive` — no network, no stashing,
# nothing registered in the repository; uncommitted changes in the
# working tree are measured as-is.
set -euo pipefail

pairs=
bench='.'
pkg=./internal/sim
mode=micro
expargs="-exp shards -short -seed 1"
workload=micro-resident
seed=1
while getopts "n:b:p:x:w:s:er" opt; do
  case $opt in
  n) pairs=$OPTARG ;;
  b) bench=$OPTARG ;;
  p) pkg=$OPTARG ;;
  x) expargs=$OPTARG ;;
  w) workload=$OPTARG ;;
  s) seed=$OPTARG ;;
  e) mode=e2e ;;
  r) mode=repo ;;
  *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))
ref=${1:-HEAD}
[ -n "$pairs" ] || { [ "$mode" = repo ] && pairs=10 || pairs=5; }

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$ref" | tar -x -C "$tmp/base"

# sides <i>: the two sides of pair i in the order they run — the baseline
# first in odd pairs, the working tree first in even ones.
sides() { [ $(($1 % 2)) = 1 ] && echo "old new" || echo "new old"; }

if [ "$mode" = repo ]; then
  echo "building ./benchmark: parent=$ref, change=worktree" >&2
  (cd "$tmp/base" && go build -o "$tmp/bench-old" ./benchmark)
  (cd "$root" && go build -o "$tmp/bench-new" ./benchmark)
  for i in $(seq "$pairs"); do
    for side in $(sides "$i"); do
      # The benchmark builds nothing and writes nothing at -trace 0, but
      # run each side from its own tree all the same.
      dir=$root
      [ "$side" = new ] || dir=$tmp/base
      (cd "$dir" && "$tmp/bench-$side" -workload "$workload" -seed "$seed" -seconds 10 -trace 0) |
        tail -n 1 >>"$tmp/$side.jsonl"
    done
    echo "pair $i/$pairs ($(sides "$i")): done" >&2
  done
  if grep -hv '"correct":true' "$tmp/old.jsonl" "$tmp/new.jsonl" | grep -q .; then
    echo "benchdiff: a run did not end in a correct result line" >&2
    exit 1
  fi
  # One "side metric value" line per run and metric, in pair order.
  for side in old new; do
    grep -o '"[a-z0-9_]*":{"value":[^,}]*' "$tmp/$side.jsonl" |
      sed -e 's/"//g' -e 's/:{value:/ /' -e "s/^/$side /"
  done | awk -v workload="$workload" '
    { v[$1, $2, ++n[$1, $2]] = $3; if ($1 == "old" && !($2 in seen)) { seen[$2]; order[++m] = $2 } }
    # quartile i of the k values of side s, metric q: the exclusive method
    # of Python statistics.quantiles, as benchmark/report.go uses.
    function quart(s, q, i,    k, j, d, a, b, t, x) {
      k = n[s, q]
      for (a = 1; a <= k; a++) x[a] = v[s, q, a]
      for (a = 2; a <= k; a++) { t = x[a]; for (b = a - 1; b >= 1 && x[b] > t; b--) x[b + 1] = x[b]; x[b + 1] = t }
      if (k == 1) return x[1]
      j = int(i * (k + 1) / 4); if (j < 1) j = 1; if (j > k - 1) j = k - 1
      d = i * (k + 1) - j * 4
      return (x[j] * (4 - d) + x[j + 1] * d) / 4
    }
    END {
      print "| workload | metric | parent | change | change ÷ parent | pairs | medians apart ÷ parent IQR |"
      print "|---|---|---|---|---|---|---|"
      for (o = 1; o <= m; o++) {
        q = order[o]; wins = ties = 0; lower = (q != "sim_goodput_krps")
        for (a = 1; a <= n["old", q]; a++) {
          if (v["new", q, a] == v["old", q, a]) ties++
          else if ((v["new", q, a] < v["old", q, a]) == lower) wins++
        }
        if (q ~ /^sim_/ && ties != n["old", q]) differ = 1
        om = quart("old", q, 2); nm = quart("new", q, 2); iqr = quart("old", q, 3) - quart("old", q, 1)
        apart = (iqr > 0) ? sprintf("%.1f", (nm > om ? nm - om : om - nm) / iqr) : (nm == om ? "0" : "inf")
        printf "| `%s` | `%s` | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.3f | %d/%d%s | %s |\n", workload, q,
          om, quart("old", q, 1), quart("old", q, 3), nm, quart("new", q, 1), quart("new", q, 3),
          (om != 0) ? nm / om : 1, wins, n["old", q], ties ? ", " ties " ties" : "", apart
      }
      if (differ) { print "benchdiff: a simulated metric differs between the sides" > "/dev/stderr"; exit 1 }
    }'
  exit
fi

if [ "$mode" = e2e ]; then
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
    for side in $(sides "$i"); do
      t=$(secs "$tmp/bench-$side")
      [ "$side" = old ] && a=$t || b=$t
    done
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
