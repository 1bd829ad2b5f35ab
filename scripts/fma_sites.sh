#!/bin/sh
# fma_sites.sh — count the fused multiply-add instructions the arm64
# compiler emits for the code under internal/, per source file, and
# check the counts against scripts/fma_sites.allow.
#
# Go may fuse x*y + z into one instruction (FMADDD and its kin) on
# arm64 but never does on amd64, so a fused site can round differently
# on the two and move a deterministic run's output. An explicit
# float64(x*y) rounds the product and stops the fusion. Code inlined
# from another file counts at the file it came from, once per caller.
#
# The allow file holds one "file count" line per file with known sites.
# The check fails when a file has more sites than its line allows or a
# file without a line has any; a file below its count is reported, and
# its line should come down in the same change.
#
# The build cross-compiles for arm64 (no emulator needed) with -a, so
# every package prints its assembly; it takes about 25 s on 2 CPUs.
#
# Usage: ./scripts/fma_sites.sh
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if ! GOARCH=arm64 go build -a -gcflags='repro/...=-S' ./internal/... 2>"$TMP/asm.txt"; then
    grep -E '\.go:[0-9]+:[0-9]+: ' "$TMP/asm.txt" | head -20 >&2
    echo "fma_sites: arm64 build failed" >&2
    exit 1
fi
# An instruction line reads "	0x006c 00108 (/abs/path/file.go:31)	FMADDD	...".
grep -E '	F(N?M(ADD|SUB))[DS]	' "$TMP/asm.txt" |
    sed -E 's/^[^(]*\(([^:]*):[0-9]+\).*/\1/' | sed "s|^$(pwd)/||" |
    sort | uniq -c | awk '{ print $2, $1 }' >"$TMP/sites.txt"

awk '
    FNR == NR { if ($0 !~ /^(#|$)/) allow[$1] = $2; next }
    {
        total += $2; seen[$1] = 1
        if (!($1 in allow)) { printf "FAIL %s: %d fused sites, none allowed\n", $1, $2; bad = 1 }
        else if ($2 > allow[$1]) { printf "FAIL %s: %d fused sites, %d allowed\n", $1, $2, allow[$1]; bad = 1 }
        else if ($2 < allow[$1]) printf "note %s: %d fused sites, %d allowed: lower its line\n", $1, $2, allow[$1]
    }
    END {
        for (f in allow) if (!(f in seen)) printf "note %s: no fused sites, %d allowed: drop its line\n", f, allow[f]
        printf "fma_sites: %d fused sites in internal/\n", total
        exit bad
    }' scripts/fma_sites.allow "$TMP/sites.txt"
