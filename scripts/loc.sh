#!/usr/bin/env bash
# loc.sh — non-test Go line counts, one row per internal/* package and
# a total: `wc -l` over every .go file that is not a _test.go file.
#
# Usage: scripts/loc.sh [tree]      (default: the repository this script is in)
#
# This is the count a simplicity PR quotes for its "net smaller" line;
# run it on a checkout of the parent commit for the "before" column.
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

total=0
for dir in internal/*/; do
	pkg="${dir%/}"
	n=$(find "$pkg" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-28s %6d\n' "$pkg" "$n"
	total=$((total + n))
done
printf '%-28s %6d\n' 'internal (non-test total)' "$total"
