#!/bin/sh
# bench_compare.sh — regression gate for the hot-path benchmarks.
# Re-runs the tracked micro-benchmarks and compares them against the
# committed baseline (BENCH_results.json): fails on >20% ns/op growth
# or allocs/op growth, so a perf or allocation regression fails
# `make check` instead of silently eroding the recorded numbers.
#
# The priority-pipeline gate is a same-run ratio instead, because
# absolute rows do not carry across hosts: the mixed-priority jobsched
# trace must cost at most 1.6x the all-equal-priority trace measured
# alongside it (see the ratio section below).
#
# Noise handling: each benchmark runs three times and the gate takes
# the per-metric minimum — a shared box only ever adds time, so the
# minimum is the honest estimate of the code's cost. allocs/op gets a
# +1 absolute slack because the parallel search benchmarks jitter by
# one allocation with goroutine scheduling; a real regression adds
# allocations per operation and trips the gate regardless. If the
# gate fails after an intentional change, regenerate the baseline
# with `make bench` and commit it.
#
# Usage: ./scripts/bench_compare.sh [baseline.json]
set -eu

cd "$(dirname "$0")/.."
BASE="${1:-BENCH_results.json}"
[ -f "$BASE" ] || { echo "bench_compare: baseline $BASE not found" >&2; exit 1; }
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Same benchmark set AND iteration counts as scripts/bench.sh: the
# per-op allocation numbers amortise one-time warm-up over the
# iteration count, so only an identical -benchtime reproduces the
# baseline's accounting.
BENCHES='BenchmarkCLIPSchedule$|BenchmarkSimRun$|BenchmarkOptimalSearch$'
BENCHES_LARGE='BenchmarkOptimalSearchLarge$|BenchmarkJobschedThroughput$|BenchmarkJobschedPriorityThroughput$'
go test -run '^$' -bench "$BENCHES" -benchmem -benchtime=50x -count=3 . > "$TMP/bench.txt"
go test -run '^$' -bench "$BENCHES_LARGE" -benchmem -benchtime=5x -count=3 . >> "$TMP/bench.txt"

awk -v base="$BASE" '
BEGIN {
    # Baseline values: bench.sh writes one "BenchmarkX": {...} object
    # per line, so a line-oriented scrape is enough (no jq dependency).
    while ((getline line < base) > 0) {
        if (line !~ /"Benchmark/) continue
        name = line; sub(/^[ \t]*"/, "", name); sub(/".*/, "", name)
        if (match(line, /"ns_per_op": [0-9.e+]+/))
            bns[name] = substr(line, RSTART + 13, RLENGTH - 13)
        if (match(line, /"allocs_per_op": [0-9]+/))
            ball[name] = substr(line, RSTART + 17, RLENGTH - 17)
    }
}
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = $3 + 0
    allocs = -1
    for (i = 4; i <= NF; i++) if ($(i) == "allocs/op") allocs = $(i - 1) + 0
    if (!(name in mns) || ns < mns[name]) mns[name] = ns
    if (allocs >= 0 && (!(name in mall) || allocs < mall[name])) mall[name] = allocs
    if (!(name in seen)) { seen[name] = ++n; names[n] = name }
}
END {
    for (i = 1; i <= n; i++) {
        name = names[i]
        if (!(name in bns)) {
            printf "bench_compare: %s not in baseline, skipping\n", name
            continue
        }
        checked++
        if (mns[name] > bns[name] * 1.20) {
            printf "bench_compare: FAIL %s ns/op %.0f, baseline %.0f (+20%% limit)\n", name, mns[name], bns[name]
            bad = 1
        } else {
            printf "bench_compare: ok   %s ns/op %.0f (baseline %.0f)\n", name, mns[name], bns[name]
        }
        if (name in mall && name in ball && mall[name] > ball[name] + 1) {
            printf "bench_compare: FAIL %s allocs/op %d, baseline %s (no growth allowed)\n", name, mall[name], ball[name]
            bad = 1
        }
    }
    if (checked == 0) { print "bench_compare: no tracked benchmark matched the baseline"; exit 1 }
    if (bad) print "bench_compare: regenerate the baseline with make bench if this change is intentional"
    exit bad
}' "$TMP/bench.txt"

# Priority-pipeline ratio gate: the same 1000-job trace with a quarter
# of the jobs at high priority and preemption on, against the
# all-equal-priority trace, both measured in one process per round so
# the host's speed phases hit both sides alike. The gate takes the
# median of seven per-round ratios. A priority trace does inherent
# extra work (preemptions, restarts, longer queues), about 1.4x on a
# 2-vCPU VM; a dispatch path that re-sorted the queue per pass measured
# 1.8-2.0x there, so 1.6x separates the two with margin on both sides.
RATIO_BENCHES='BenchmarkJobschedThroughput$|BenchmarkJobschedPriorityThroughput$'
: > "$TMP/ratio.txt"
i=0
while [ "$i" -lt 7 ]; do
    go test -run '^$' -bench "$RATIO_BENCHES" -benchtime=5x . | grep '^Benchmark' >> "$TMP/ratio.txt"
    i=$((i + 1))
done

awk '
$1 ~ /^BenchmarkJobschedThroughput(-[0-9]+)?$/ { plain = $3 + 0 }
$1 ~ /^BenchmarkJobschedPriorityThroughput(-[0-9]+)?$/ { if (plain > 0) r[++n] = ($3 + 0) / plain; plain = 0 }
END {
    if (n == 0) { print "bench_compare: FAIL no jobsched ratio rounds measured"; exit 1 }
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && r[j - 1] > r[j]; j--) { t = r[j]; r[j] = r[j - 1]; r[j - 1] = t }
    med = r[int((n + 1) / 2)]
    if (med > 1.6) {
        printf "bench_compare: FAIL BenchmarkJobschedPriorityThroughput is %.2fx BenchmarkJobschedThroughput (median of %d rounds, 1.60x limit)\n", med, n
        exit 1
    }
    printf "bench_compare: ok   BenchmarkJobschedPriorityThroughput is %.2fx BenchmarkJobschedThroughput (median of %d rounds)\n", med, n
}' "$TMP/ratio.txt"

# Federation throughput gate: re-run the clipfed_parallel workload and
# compare best-of-5 events/s per worker count against the baseline's
# clipfed_parallel rows (identified by their 4096-job trace). Wall-clock
# throughput on a shared box is noisy in one direction only — load adds
# time — so the per-worker maximum is the honest estimate, mirroring
# the ns/op minimum above.
go build -o "$TMP/clipfed" ./cmd/clipfed
PFLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 0.25 -routing locality -seed 1 -lend=false"
: > "$TMP/fed.txt"
for W in 1 2 4; do
    i=0
    while [ "$i" -lt 5 ]; do
        "$TMP/clipfed" $PFLAGS -workers "$W" > /dev/null 2> "$TMP/cfp.txt"
        grep '^clipfed shards=' "$TMP/cfp.txt" >> "$TMP/fed.txt"
        i=$((i + 1))
    done
done

awk -v base="$BASE" '
BEGIN {
    # Baseline parallel rows: one {...} per line inside the
    # clipfed_parallel array, keyed by worker count.
    while ((getline line < base) > 0) {
        if (line !~ /"jobs": 4096/ || line !~ /"workers":/) continue
        if (!match(line, /"workers": [0-9]+/)) continue
        w = substr(line, RSTART + 11, RLENGTH - 11)
        if (match(line, /"events_per_s": [0-9.e+]+/))
            beps[w] = substr(line, RSTART + 16, RLENGTH - 16) + 0
    }
}
/^clipfed shards=/ {
    w = ""; eps = 0
    for (i = 2; i <= NF; i++) {
        eq = index($(i), "=")
        if (substr($(i), 1, eq - 1) == "workers") w = substr($(i), eq + 1)
        if (substr($(i), 1, eq - 1) == "events_per_s") eps = substr($(i), eq + 1) + 0
    }
    if (w != "" && (!(w in meps) || eps > meps[w])) meps[w] = eps
    if (!(w in seen)) { seen[w] = ++n; order[n] = w }
}
END {
    for (i = 1; i <= n; i++) {
        w = order[i]
        if (!(w in beps)) {
            printf "bench_compare: clipfed_parallel workers=%s not in baseline, skipping\n", w
            continue
        }
        checked++
        if (meps[w] < beps[w] * 0.80) {
            printf "bench_compare: FAIL clipfed_parallel workers=%s events/s %.0f, baseline %.0f (-20%% limit)\n", w, meps[w], beps[w]
            bad = 1
        } else {
            printf "bench_compare: ok   clipfed_parallel workers=%s events/s %.0f (baseline %.0f)\n", w, meps[w], beps[w]
        }
    }
    if (checked == 0) print "bench_compare: no clipfed_parallel baseline rows (regenerate with make bench)"
    if (bad) print "bench_compare: regenerate the baseline with make bench if this change is intentional"
    exit bad
}' "$TMP/fed.txt"

# Chaos-federation gate: the same 64-shard workload with the shard-fault
# stream armed (health machine, orphan-reclaim probes and evacuations on
# the hot path), best-of-5 events/s against the baseline's clipfed_chaos
# row. A non-zero clipfed exit here means the degraded-mode audit itself
# failed, which aborts the gate immediately under set -e.
CHAOS_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 512 -gap 1 -routing locality -seed 1 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60 -shard-fault-seed 9"
: > "$TMP/chaosfed.txt"
i=0
while [ "$i" -lt 5 ]; do
    "$TMP/clipfed" $CHAOS_FLAGS > /dev/null 2> "$TMP/cfc.txt"
    grep '^clipfed shards=' "$TMP/cfc.txt" >> "$TMP/chaosfed.txt"
    i=$((i + 1))
done

awk -v base="$BASE" '
BEGIN {
    # Baseline: the one-line "clipfed_chaos": {...} object.
    beps = 0
    while ((getline line < base) > 0) {
        if (line !~ /"clipfed_chaos"/) continue
        if (match(line, /"events_per_s": [0-9.e+]+/))
            beps = substr(line, RSTART + 16, RLENGTH - 16) + 0
    }
}
/^clipfed shards=/ {
    for (i = 2; i <= NF; i++) {
        eq = index($(i), "=")
        if (substr($(i), 1, eq - 1) == "events_per_s") {
            eps = substr($(i), eq + 1) + 0
            if (eps > best) best = eps
        }
    }
}
END {
    if (beps == 0) { print "bench_compare: no clipfed_chaos baseline row (regenerate with make bench)"; exit 1 }
    if (best < beps * 0.80) {
        printf "bench_compare: FAIL clipfed_chaos events/s %.0f, baseline %.0f (-20%% limit)\n", best, beps
        print "bench_compare: regenerate the baseline with make bench if this change is intentional"
        exit 1
    }
    printf "bench_compare: ok   clipfed_chaos events/s %.0f (baseline %.0f)\n", best, beps
}' "$TMP/chaosfed.txt"
