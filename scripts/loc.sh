#!/usr/bin/env bash
# loc.sh — non-test Go line counts, one row per internal/* package and
# a total, then the same for the cmd/* programs: `wc -l` over every .go
# file that is not a _test.go file.
#
# Usage: scripts/loc.sh [tree [parent-tree]]
#        (tree defaults to the repository this script is in)
#
# This is the count a simplicity PR quotes for its "net smaller" line.
# With a second tree — a checkout of the parent commit — every row
# reads before / after / delta, over the packages of either tree.
set -euo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
parent="${2:+$(cd "$2" && pwd)}"

# count <tree> <pkg>: non-test Go lines of one package, 0 if it is absent.
count() {
	[ -d "$1/$2" ] || { echo 0; return; }
	find "$1/$2" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

# row <label> <after> <before>: one table row in either mode.
row() {
	if [ -z "$parent" ]; then
		printf '%-28s %6d\n' "$1" "$2"
	else
		printf '%-28s %6d %6d %+6d\n' "$1" "$3" "$2" $(($2 - $3))
	fi
}

[ -z "$parent" ] || printf '%-28s %6s %6s %6s\n' package before after delta
# section <top>: one row per directory under <top> in either tree, then
# their total.
section() {
	local total=0 ptotal=0 dir pkg n p
	for dir in $(for t in "$root" $parent; do (cd "$t" && ls -d "$1"/*/); done | sort -u); do
		pkg="${dir%/}"
		n=$(count "$root" "$pkg")
		p=0
		[ -z "$parent" ] || p=$(count "$parent" "$pkg")
		row "$pkg" "$n" "$p"
		total=$((total + n))
		ptotal=$((ptotal + p))
	done
	row "$1 (non-test total)" "$total" "$ptotal"
}
section internal
section cmd
