#!/bin/sh
# telemetry_identity.sh — check that the working tree (head) leaves four
# deterministic runs exactly as a base commit left them: every counter
# total and every histogram count of their -telemetry-out reports, and
# their stdout. Histogram sums and gauges are not compared (they hold
# wall times and end-of-run levels), nor is stderr (wall-clock lines).
#
# The runs:
#   bench  clipbench -exp all -parallel 1
#   sim    clipsim fault run: sp-mz.C at 1200 W, node crashes, 30% high priority
#   evac   clipfed chaos/evac shape of bench_compare.sh (4,096 jobs,
#          shard crashes and partitions, 20% high priority)
#   part   clipfed partitioned shape of bench_compare.sh at -workers 2
#
# The base tree comes from `git archive` (no worktree, no network), as
# in bench_compare.sh. Every run's verdict prints before the script
# exits non-zero on any difference.
#
# Usage: ./scripts/telemetry_identity.sh [base-ref]
# base-ref defaults to HEAD when the working tree differs from it, and
# to HEAD~1 when it does not.
set -eu

cd "$(dirname "$0")/.."
if [ $# -gt 0 ]; then
    BASE_REF=$1
elif [ -n "$(git status --porcelain)" ]; then
    BASE_REF=HEAD
else
    BASE_REF=HEAD~1
fi
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

mkdir "$TMP/src" "$TMP/base" "$TMP/head"
git archive "$BASE_REF" | tar -x -C "$TMP/src"
for c in clipbench clipsim clipfed; do
    (cd "$TMP/src" && go build -o "$TMP/base/$c" ./cmd/$c)
    go build -o "$TMP/head/$c" ./cmd/$c
done

SIM_FLAGS="-app sp-mz.C -budget 1200 -faults crash-mtbf=60,mttr=20,seed=7 -hipri-frac 0.3"
EVAC_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 1 -seed 1 -hipri-frac 0.2 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"
PART_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 0.25 -routing locality -seed 1 -lend=false -workers 2"

# run SIDE NAME CMD ARGS... runs one binary of SIDE in its own directory
# and leaves NAME.out (stdout without wall-clock lines) and NAME.tel
# (one "counter NAME VALUE" or "histogram NAME count N" line per metric,
# sorted) in $TMP/SIDE.
run() {
    side=$1 name=$2 bin=$3
    shift 3
    dir="$TMP/$side/$name.d"
    mkdir "$dir"
    (cd "$dir" && "$TMP/$side/$bin" "$@" -telemetry-out tel.json > out.txt 2> err.txt) || {
        echo "$side $name: $bin exited non-zero" >&2
        cat "$dir/err.txt" >&2
        exit 1
    }
    grep -v -i 'wall' "$dir/out.txt" > "$TMP/$side/$name.out" || true
    awk '
    /^  "counters": \{/   { sec = "counter"; next }
    /^  "histograms": \{/ { sec = "histogram"; next }
    /^  [^ ]/             { sec = "" }
    sec == "counter" && /^    "/ {
        v = $NF; sub(/,$/, "", v); k = $0; sub(/^    /, "", k); sub(/: [^ ]*$/, "", k)
        print "counter " k " " v
    }
    sec == "histogram" && /^    "/ { k = $1; sub(/:$/, "", k) }
    sec == "histogram" && /^      "count": / { v = $2; sub(/,$/, "", v); print "histogram " k " count " v }
    ' "$dir/tel.json" | sort > "$TMP/$side/$name.tel"
}

for side in base head; do
    run "$side" bench clipbench -exp all -parallel 1
    run "$side" sim clipsim $SIM_FLAGS
    run "$side" evac clipfed $EVAC_FLAGS
    run "$side" part clipfed $PART_FLAGS
done

bad=0
for name in bench sim evac part; do
    b="$TMP/base/$name" h="$TMP/head/$name"
    verdict=
    if ! cmp -s "$b.tel" "$h.tel"; then
        verdict="telemetry differs"
        diff "$b.tel" "$h.tel" | sed "s/^/  $name: /" || true
    fi
    if ! cmp -s "$b.out" "$h.out"; then
        verdict="${verdict:+$verdict, }stdout differs"
        diff "$b.out" "$h.out" | head -20 | sed "s/^/  $name: /" || true
    fi
    [ -z "$verdict" ] || bad=1
    printf '%-6s %4d counters %4d histograms %6d stdout lines vs %s: %s\n' "$name" \
        "$(grep -c '^counter' "$h.tel")" "$(grep -c '^histogram' "$h.tel")" \
        "$(wc -l < "$h.out")" "$BASE_REF" "${verdict:-identical}"
done
exit "$bad"
