#!/bin/sh
# bench_compare.sh — paired perf gate: the working tree (head) against a
# base commit, both built and measured in the same run, so a slow or fast
# phase of the host hits both sides alike and only the change shows.
#
# The base tree comes from `git archive` (no worktree, no network). Each
# side builds the root benchmark test binary and clipfed once, then 9
# rounds alternate the sides (base first in even rounds) over the ten
# tracked micro-benchmarks (BenchmarkFedBuild is fed-scale's federation
# set-up: fed.New plus 65,536 scheduled arrivals, and BenchmarkFedReplay
# the run that follows it, RunParallel(1); BenchmarkRecommendBest
# and BenchmarkRecommendBestCold are the node-level search on a warm and
# a fresh grid), the clipfed_parallel
# rows at workers 1/2/4,
# the clipfed_chaos row and the clipfed_evac row (the chaos fault
# stream under least-loaded routing, about 32k evacuations). A row
# fails when the median of its per-round head/base ratios is past its
# limit (ns/op above 1.20, allocs/op above 1.00, events/s below 1/1.20)
# and at least 8 of the 9 rounds went the same way. On a noisy 2-vCPU
# VM one round's ratio ranges 0.6-1.6 on identical code, and the median
# alone still crossed a limit in some A/A runs; 8 of 9 by chance has
# odds of 10/512. The head side's mixed-priority jobsched trace must
# also cost at most 1.6x the all-equal-priority trace of the same round
# (median over rounds): it does inherent extra work, about 1.4x, while
# a dispatch path that re-sorted the queue per pass measured 1.8-2.0x.
# Every verdict prints before the script exits non-zero.
#
# The benchtimes are measured: 50 iterations of the ~1 us CLIPSchedule
# gave an A/A median ratio of 1.30, while 200ms for the three small
# benchmarks and 10 iterations of the three large ones did not.
#
# Usage: ./scripts/bench_compare.sh [base-ref]
# base-ref defaults to HEAD when the working tree differs from it, and
# to HEAD~1 when it does not (a clean tree measures its last commit).
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

mkdir "$TMP/base"
git archive "$BASE_REF" | tar -x -C "$TMP/base"
(cd "$TMP/base" && go test -c -o "$TMP/base.test" . && go build -o "$TMP/base.clipfed" ./cmd/clipfed)
go test -c -o "$TMP/head.test" .
go build -o "$TMP/head.clipfed" ./cmd/clipfed

SMALL='BenchmarkCLIPSchedule$|BenchmarkSimRun$|BenchmarkOptimalSearch$|BenchmarkRecommendBest$|BenchmarkRecommendBestCold$'
LARGE='BenchmarkOptimalSearchLarge$|BenchmarkJobschedThroughput$|BenchmarkJobschedPriorityThroughput$|BenchmarkFedBuild$|BenchmarkFedReplay$'
PFLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 0.25 -routing locality -seed 1 -lend=false"
CHAOS_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 512 -gap 1 -routing locality -seed 1 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"
EVAC_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 1 -seed 1 -hipri-frac 0.2 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"

# measure ROUND SIDE DIR appends one round of every row on one side to
# rows.txt, each line prefixed "ROUND SIDE". A failing benchmark, or a
# clipfed run whose audit fails (it exits non-zero), aborts the gate.
measure() {
    bin="$TMP/$2"
    (cd "$3" && "$bin.test" -test.run '^$' -test.bench "$SMALL" -test.benchmem -test.benchtime 200ms &&
        "$bin.test" -test.run '^$' -test.bench "$LARGE" -test.benchmem -test.benchtime 10x) > "$TMP/out.txt"
    for W in 1 2 4; do
        "$bin.clipfed" $PFLAGS -workers "$W" > /dev/null 2> "$TMP/cf.txt"
        sed -n 's/^clipfed shards=/clipfed_parallel shards=/p' "$TMP/cf.txt" >> "$TMP/out.txt"
    done
    "$bin.clipfed" $CHAOS_FLAGS > /dev/null 2> "$TMP/cf.txt"
    sed -n 's/^clipfed shards=/clipfed_chaos shards=/p' "$TMP/cf.txt" >> "$TMP/out.txt"
    "$bin.clipfed" $EVAC_FLAGS > /dev/null 2> "$TMP/cf.txt"
    sed -n 's/^clipfed shards=/clipfed_evac shards=/p' "$TMP/cf.txt" >> "$TMP/out.txt"
    grep -E '^(Benchmark|clipfed_)' "$TMP/out.txt" | sed "s/^/$1 $2 /" >> "$TMP/rows.txt"
}

: > "$TMP/rows.txt"
r=0
while [ "$r" -lt 9 ]; do
    if [ $((r % 2)) -eq 0 ]; then
        measure "$r" base "$TMP/base"
        measure "$r" head .
    else
        measure "$r" head .
        measure "$r" base "$TMP/base"
    fi
    r=$((r + 1))
done

awk -v base="$BASE_REF" '
function ratio(h, b) { return b > 0 ? h / b : (h > 0 ? 1e9 : 1) }
# median sorts a[1..n] in place and returns its middle value.
function median(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
    return a[int((n + 1) / 2)]
}
function verdict(row, metric, b, h, med, worse, lim, fail) {
    printf "%-36s %-9s %12s %12s %6.2f %5s %7s  %s\n", row, metric, b, h, med, worse, lim, fail ? "FAIL" : "ok"
    if (fail) bad = 1
}
function add(row, metric, v) {
    if (!((row, metric) in seen)) { seen[row, metric] = 1; rows[++nk] = row; metrics[nk] = metric }
    val[row, metric, $1, $2] = v
    if ($1 + 1 > nr) nr = $1 + 1
}
$3 ~ /^Benchmark/ {
    row = $3; sub(/-[0-9]+$/, "", row)
    add(row, "ns/op", $5)
    for (i = 7; i <= NF; i++) if ($i == "allocs/op") add(row, "allocs/op", $(i - 1))
}
$3 ~ /^clipfed_/ {
    row = $3
    for (i = 4; i <= NF; i++) {
        split($i, kv, "=")
        if (kv[1] == "workers" && row == "clipfed_parallel") row = row " workers=" kv[2]
        if (kv[1] == "events_per_s") eps = kv[2]
    }
    add(row, "events/s", eps)
}
END {
    printf "bench_compare: base %s against the working tree, medians of %d paired rounds\n", base, nr
    printf "%-36s %-9s %12s %12s %6s %5s %7s  %s\n", "row", "metric", "base", "head", "ratio", "worse", "limit", "verdict"
    for (k = 1; k <= nk; k++) {
        row = rows[k]; m = metrics[k]; n = 0
        for (r = 0; r < nr; r++)
            if ((row, m, r, "head") in val && (row, m, r, "base") in val) {
                h[++n] = val[row, m, r, "head"]; b[n] = val[row, m, r, "base"]; q[n] = ratio(h[n], b[n])
            }
        if (n == 0) { printf "%-36s %-9s %s\n", row, m, "not on both sides, not gated"; continue }
        w = 0
        for (i = 1; i <= n; i++) w += (m == "events/s") ? (q[i] < 1) : (q[i] > 1)
        med = median(q, n)
        if (m == "ns/op") { lim = "<=1.20"; past = med > 1.20 }
        else if (m == "allocs/op") { lim = "<=1.00"; past = med > 1 }
        else { lim = ">=0.83"; past = med < 1 / 1.20 }
        verdict(row, m, sprintf("%.0f", median(b, n)), sprintf("%.0f", median(h, n)), med, w "/" n, lim, past && w >= n - 1)
    }
    # Same-round priority/plain ratio of the head side.
    p = "BenchmarkJobschedPriorityThroughput"; f = "BenchmarkJobschedThroughput"; n = 0
    for (r = 0; r < nr; r++)
        if ((p, "ns/op", r, "head") in val && (f, "ns/op", r, "head") in val)
            q[++n] = ratio(val[p, "ns/op", r, "head"], val[f, "ns/op", r, "head"])
    med = n ? median(q, n) : 1e9
    verdict("JobschedPriority/Jobsched (head)", "ns/op", "", "", med, "", "<=1.60", (med > 1.60))
    exit bad
}' "$TMP/rows.txt"
