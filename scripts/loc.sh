#!/bin/sh
# loc.sh — non-test Go line counts of every package under internal/, at
# a base commit and in the working tree, with the difference and a
# total. A line is a line of a .go file that is not a _test.go file
# (comments and blank lines count, as wc -l counts them); testdata
# directories are skipped.
#
# The base tree comes from `git archive` (no worktree, no network), as
# in bench_compare.sh.
#
# Usage: ./scripts/loc.sh [base-ref]
# base-ref defaults to HEAD.
set -eu

cd "$(dirname "$0")/.."
BASE_REF=${1:-HEAD}
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base"
git archive "$BASE_REF" internal | tar -x -C "$TMP/base"

# count DIR prints "package lines" for every package under DIR/internal.
count() {
    (cd "$1" && find internal -name testdata -prune -o \
        -type f -name '*.go' ! -name '*_test.go' -exec awk '
        FNR == 1 { d = FILENAME; sub(/\/[^\/]*$/, "", d) }
        { n[d]++ }
        END { for (d in n) print d, n[d] }' {} +)
}

count "$TMP/base" >"$TMP/base.txt"
count . >"$TMP/head.txt"
awk '
    FNR == NR { base[$1] += $2; seen[$1] = 1; next }
    { head[$1] += $2; seen[$1] = 1 }
    END {
        printf "%-24s %7s %7s %7s\n", "package", "base", "head", "diff"
        for (p in seen) {
            printf "%-24s %7d %7d %+7d\n", p, base[p], head[p], head[p] - base[p] | "sort"
            tb += base[p]; th += head[p]
        }
        close("sort")
        printf "%-24s %7d %7d %+7d\n", "total", tb, th, th - tb
    }' "$TMP/base.txt" "$TMP/head.txt"
