#!/usr/bin/env bash
# loc.sh — non-test Go line counts, one row per internal/* package and
# a total, then the same for the cmd/* programs, over every .go file
# that is not a _test.go file. Each row gives all lines (`wc -l`) and
# code lines: those neither blank nor comment-only (a comment-only line
# starts with // after any indentation).
#
# Usage: scripts/loc.sh [tree [parent-tree]]
#        (tree defaults to the repository this script is in)
#
# These are the counts a simplicity PR quotes for its "net smaller"
# line; deleted comments shrink the first but not the second. With a
# second tree — a checkout of the parent commit — each count reads
# before / after / delta, over the packages of either tree.
set -euo pipefail

root="$(cd "${1:-$(dirname "$0")/..}" && pwd)"
parent="${2:+$(cd "$2" && pwd)}"

# count <tree> <pkg>: "lines code" of one package, "0 0" if it is absent.
count() {
	[ -d "$1/$2" ] || { echo 0 0; return; }
	find "$1/$2" -name '*.go' ! -name '*_test.go' -exec cat {} + |
		awk '!/^[ \t]*$/ && !/^[ \t]*\/\// { code++ } END { print NR + 0, code + 0 }'
}

# row <label> <lines> <code> <parent lines> <parent code>: one table row
# in either mode.
row() {
	if [ -z "$parent" ]; then
		printf '%-28s %6d %6d\n' "$1" "$2" "$3"
	else
		printf '%-28s %6d %6d %+6d   %6d %6d %+6d\n' "$1" "$4" "$2" $(($2 - $4)) "$5" "$3" $(($3 - $5))
	fi
}

if [ -z "$parent" ]; then
	printf '%-28s %6s %6s\n' package lines code
else
	printf '%-28s %6s %6s %6s   %6s %6s %6s\n' package before after delta code-b code-a delta
fi
# section <top>: one row per directory under <top> in either tree, then
# their total.
section() {
	local total=0 ctotal=0 ptotal=0 pctotal=0 dir pkg n c p pc
	for dir in $(for t in "$root" $parent; do (cd "$t" && ls -d "$1"/*/); done | sort -u); do
		pkg="${dir%/}"
		read -r n c < <(count "$root" "$pkg")
		p=0 pc=0
		[ -z "$parent" ] || read -r p pc < <(count "$parent" "$pkg")
		row "$pkg" "$n" "$c" "$p" "$pc"
		total=$((total + n)) ctotal=$((ctotal + c))
		ptotal=$((ptotal + p)) pctotal=$((pctotal + pc))
	done
	row "$1 (non-test total)" "$total" "$ctotal" "$ptotal" "$pctotal"
}
section internal
section cmd
