#!/bin/sh
# bench.sh — run the framework's hot-path micro-benchmarks and time the
# full clipbench suite (serial vs parallel), emitting BENCH_results.json
# at the repository root. Pure toolchain + POSIX sh/awk; no extra deps.
#
# Usage: ./scripts/bench.sh [output.json]
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_results.json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

BENCHES='BenchmarkCLIPSchedule$|BenchmarkSimRun$|BenchmarkOptimalSearch$|BenchmarkRecommendBest$|BenchmarkRecommendBestCold$'
# Scale-stress benchmarks (64-node search, 1k-job runtime trace plain
# and with the priority/preemption pipeline live) are heavier per
# iteration, so they run fewer times.
BENCHES_LARGE='BenchmarkOptimalSearchLarge$|BenchmarkJobschedThroughput$|BenchmarkJobschedPriorityThroughput$'

echo "== micro-benchmarks ==" >&2
go test -run '^$' -bench "$BENCHES" -benchmem -benchtime=50x . | tee "$TMP/bench.txt" >&2
go test -run '^$' -bench "$BENCHES_LARGE" -benchmem -benchtime=5x . | tee -a "$TMP/bench.txt" >&2

echo "== federation construction, 64 shards x 4 nodes ==" >&2
# fed_new: fed.New at the fed-scale shape with no arrivals, what a
# federation pays before it schedules anything (64 shard clusters and
# CLIP instances sharing one trained NP regression). fed_build: the
# same plus the fed-scale trace's 65,536 scheduled arrivals, what a
# fed-scale trial pays before it runs. fed_replay: the run half of that
# trial, RunParallel(1) on a federation built outside the timer.
go test -run '^$' -bench 'BenchmarkFed(New|Build|Replay)$' -benchmem -benchtime=20x . | tee "$TMP/fednew_full.txt" >&2
awk '/^BenchmarkFedNew/    { print "fed_new ns_per_op=" $3 " bytes_per_op=" $5 " allocs_per_op=" $7 }
     /^BenchmarkFedBuild/  { print "fed_build ns_per_op=" $3 " bytes_per_op=" $5 " allocs_per_op=" $7 }
     /^BenchmarkFedReplay/ { print "fed_replay ns_per_op=" $3 " bytes_per_op=" $5 " allocs_per_op=" $7 }' \
    "$TMP/fednew_full.txt" > "$TMP/fednew.txt"

echo "== suite wall time ==" >&2
go build -o "$TMP/clipbench" ./cmd/clipbench

wall_ms() {
    start=$(date +%s%N)
    "$TMP/clipbench" -exp all -parallel "$1" -telemetry-out '' > /dev/null
    end=$(date +%s%N)
    echo $(( (end - start) / 1000000 ))
}

SERIAL_MS=$(wall_ms 1)
PARALLEL_MS=$(wall_ms 0)
WORKERS=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
echo "suite: serial ${SERIAL_MS} ms, parallel ${PARALLEL_MS} ms (${WORKERS} workers)" >&2

echo "== chaos sweep ==" >&2
"$TMP/clipbench" -exp chaos -telemetry-out '' | tee "$TMP/chaos_full.txt" >&2
grep '^chaos scenario=' "$TMP/chaos_full.txt" > "$TMP/chaos.txt"

echo "== clipd serving throughput ==" >&2
go build -o "$TMP/clipd" ./cmd/clipd
go build -o "$TMP/clipload" ./cmd/clipload
"$TMP/clipd" -listen 127.0.0.1:0 -budget 1200 -timescale 120 \
    > "$TMP/clipd.log" 2>&1 &
CLIPD_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' "$TMP/clipd.log")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "clipd did not start" >&2; cat "$TMP/clipd.log" >&2; exit 1; }
"$TMP/clipload" -addr "$ADDR" -rps 500 -duration 10s -seed 1 \
    | tee "$TMP/clipload_full.txt" >&2
grep '^clipload ' "$TMP/clipload_full.txt" > "$TMP/clipload.txt"
kill -TERM "$CLIPD_PID"
wait "$CLIPD_PID" || { echo "clipd exited non-zero after drain" >&2; exit 1; }

echo "== clipd serving throughput, 50k rps batched ==" >&2
# The batched ingress row: 50k jobs/s offered through POST /v1/jobs:batch.
# FCFS keeps per-event dispatch O(1) at six-figure queue depths.
"$TMP/clipd" -listen 127.0.0.1:0 -budget 1200 -timescale 120 -policy fcfs \
    -queue-depth 256 > "$TMP/clipd50k.log" 2>&1 &
CLIPD_PID=$!
ADDR=""
i=0
while [ "$i" -lt 100 ]; do
    ADDR=$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' "$TMP/clipd50k.log")
    [ -n "$ADDR" ] && break
    i=$((i + 1))
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "clipd (50k) did not start" >&2; cat "$TMP/clipd50k.log" >&2; exit 1; }
"$TMP/clipload" -addr "$ADDR" -rps 50000 -batch 1024 -duration 5s -seed 1 \
    | tee "$TMP/clipload50k_full.txt" >&2
grep '^clipload ' "$TMP/clipload50k_full.txt" \
    | sed 's/^clipload /clipload50k /' > "$TMP/clipload50k.txt"
kill -TERM "$CLIPD_PID"
wait "$CLIPD_PID" || { echo "clipd (50k) exited non-zero after drain" >&2; exit 1; }

echo "== clipfed federation throughput, 64 shards ==" >&2
go build -o "$TMP/clipfed" ./cmd/clipfed
"$TMP/clipfed" -shards 64 -nodes 4 -budget 400 -jobs 512 -gap 1 \
    -routing locality -seed 1 > /dev/null 2> "$TMP/clipfed_full.txt"
cat "$TMP/clipfed_full.txt" >&2
grep '^clipfed shards=' "$TMP/clipfed_full.txt" > "$TMP/clipfed.txt"

echo "== clipfed chaos federation, 64 shards + shard faults ==" >&2
# The degraded-mode throughput row: same 64-shard federation with the
# deterministic shard-fault stream armed (crashes + partitions), so the
# health machine, orphan-reclaim probes and queue evacuations are all on
# the measured path. Exits non-zero on any audit violation, failing the
# bench run outright.
CHAOS_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 512 -gap 1 -routing locality -seed 1 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"
"$TMP/clipfed" $CHAOS_FLAGS > /dev/null 2> "$TMP/clipfed_chaos_full.txt"
cat "$TMP/clipfed_chaos_full.txt" >&2
grep '^clipfed shards=' "$TMP/clipfed_chaos_full.txt" \
    | sed 's/^clipfed /clipfed_chaos /' > "$TMP/clipfed_chaos.txt"

echo "== clipfed evacuation federation, 64 shards x 4096 jobs + shard faults ==" >&2
# The evacuation row: the chaos fault stream under least-loaded routing
# with a 20% high-priority share, so crashed shards hold deep queues and
# about 32k queued jobs move between shards per run. The locality row
# above evacuates little.
EVAC_FLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 1 -seed 1 -hipri-frac 0.2 \
    -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"
"$TMP/clipfed" $EVAC_FLAGS > /dev/null 2> "$TMP/clipfed_evac_full.txt"
cat "$TMP/clipfed_evac_full.txt" >&2
grep '^clipfed shards=' "$TMP/clipfed_evac_full.txt" \
    | sed 's/^clipfed /clipfed_evac /' > "$TMP/clipfed_evac.txt"

echo "== clipfed parallel executor, 64 shards x 4096 jobs ==" >&2
# RunParallel's scaling row: locality routing with lending off takes
# the partitioned replay (one replay per shard).
# Best-of-3 per worker count; the awk below keeps the top events/s row
# and records the speedup of 2 workers over 1.
PFLAGS="-shards 64 -nodes 4 -budget 400 -jobs 4096 -gap 0.25 -routing locality -seed 1 -lend=false"
: > "$TMP/clipfed_par.txt"
for W in 1 2 4; do
    i=0
    while [ "$i" -lt 3 ]; do
        "$TMP/clipfed" $PFLAGS -workers "$W" > /dev/null 2> "$TMP/cfp.txt"
        grep '^clipfed shards=' "$TMP/cfp.txt" \
            | sed 's/^clipfed /clipfed_parallel /' >> "$TMP/clipfed_par.txt"
        i=$((i + 1))
    done
done
cat "$TMP/clipfed_par.txt" >&2

awk -v serial="$SERIAL_MS" -v par="$PARALLEL_MS" -v workers="$WORKERS" '
# kv renders the k=v fields of a "tag k=v k=v ..." line as the members of
# one JSON object, in field order, leaving out the key skip.
function kv(skip,    i, eq, k, body) {
    body = ""
    for (i = 2; i <= NF; i++) {
        eq = index($(i), "=")
        k = substr($(i), 1, eq - 1)
        if (skip != "" && k == skip) continue
        body = body sprintf("%s\"%s\": %s", body == "" ? "" : ", ", k, substr($(i), eq + 1))
    }
    return body
}
# val returns the value of key on a "tag k=v k=v ..." line ("" if absent).
function val(key,    i, eq) {
    for (i = 2; i <= NF; i++) {
        eq = index($(i), "=")
        if (substr($(i), 1, eq - 1) == key) return substr($(i), eq + 1)
    }
    return ""
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)        # strip the GOMAXPROCS suffix
    ns[name] = $3
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op")      bytes[name]  = $(i-1)
        if ($(i) == "allocs/op") allocs[name] = $(i-1)
    }
    if (!(name in order)) { order[name] = ++n; names[n] = name }
}
# One JSON object per chaos scenario, keyed by its name.
/^chaos scenario=/ { cn++; cname[cn] = val("scenario"); cbody[cn] = kv("scenario") }
# Serving-path metrics at 500 rps and batched at 50k rps.
/^clipload /       { lbody = kv() }
/^clipload50k /    { l50body = kv() }
# The 64-shard federation, without and with the shard-fault stream.
/^clipfed /        { fbody = kv() }
/^clipfed_chaos /  { cfbody = kv() }
/^clipfed_evac /   { cebody = kv() }
# Federation construction and replay (BenchmarkFedNew, BenchmarkFedBuild,
# BenchmarkFedReplay).
/^fed_new /        { fnbody = kv() }
/^fed_build /      { fbbody = kv() }
/^fed_replay /     { frbody = kv() }
/^clipfed_parallel / {
    # Parallel-executor scaling rows, best-of-N per worker count.
    w = val("workers"); eps = val("events_per_s") + 0
    if (!(w in pbest) || eps > pbest[w]) { pbest[w] = eps; pbody[w] = kv(); pwall[w] = val("wall_ms") + 0 }
    if (!(w in pseen)) { pseen[w] = ++pn; porder[pn] = w }
}
END {
    printf "{\n  \"benchmarks\": {\n"
    for (i = 1; i <= n; i++) {
        name = names[i]
        printf "    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, ns[name], bytes[name] == "" ? 0 : bytes[name], \
            allocs[name] == "" ? 0 : allocs[name], i < n ? "," : ""
    }
    printf "  },\n"
    printf "  \"chaos\": {\n"
    for (i = 1; i <= cn; i++)
        printf "    \"%s\": {%s}%s\n", cname[i], cbody[i], i < cn ? "," : ""
    printf "  },\n"
    printf "  \"clipload\": {%s},\n", lbody
    printf "  \"clipload_batch_50k\": {%s},\n", l50body
    printf "  \"clipfed\": {%s},\n", fbody
    printf "  \"clipfed_chaos\": {%s},\n", cfbody
    printf "  \"clipfed_evac\": {%s},\n", cebody
    printf "  \"fed_new\": {%s},\n", fnbody
    printf "  \"fed_build\": {%s},\n", fbbody
    printf "  \"fed_replay\": {%s},\n", frbody
    # speedup: the best workers-1 wall over the best workers-2 wall.
    speedup = pwall[2] > 0 ? pwall[1] / pwall[2] : 0
    printf "  \"clipfed_parallel\": {\"speedup\": %.2f, \"rows\": [\n", speedup
    for (i = 1; i <= pn; i++)
        printf "    {%s}%s\n", pbody[porder[i]], i < pn ? "," : ""
    printf "  ]},\n"
    printf "  \"suite\": {\"serial_wall_ms\": %s, \"parallel_wall_ms\": %s, \"workers\": %s}\n", serial, par, workers
    printf "}\n"
}' "$TMP/bench.txt" "$TMP/chaos.txt" "$TMP/clipload.txt" "$TMP/clipload50k.txt" "$TMP/clipfed.txt" "$TMP/clipfed_chaos.txt" "$TMP/clipfed_evac.txt" "$TMP/fednew.txt" "$TMP/clipfed_par.txt" > "$OUT"

echo "wrote $OUT" >&2
cat "$OUT"
