#!/bin/sh
# fed_chaos_smoke.sh — drive a 16-shard federation with the shard-fault
# stream armed (crashes + broker-link partitions) through cmd/clipfed on
# a fixed seed: require a clean degraded-mode audit, zero lost jobs,
# actual fault/evacuation activity, orphaned leases with at least one
# forced reclaim and none outstanding, and a decision-only event ring
# (rebalances retained, no per-handler state snapshots); then
# byte-compare a repeat run and a `-workers 4` parallel run against the
# serial one to pin the chaos determinism guarantee. Wired into
# `make check`.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/clipfed" ./cmd/clipfed

FLAGS="-shards 16 -nodes 4 -budget 400 -jobs 192 -gap 1.5 -seed 7 \
  -shard-faults crash-mtbf=400,mttr=120,part-mtbf=600,part-dur=60,seed=9"
"$TMP/clipfed" $FLAGS -telemetry-out "$TMP/tel.json" > "$TMP/run1.out" 2>"$TMP/run1.err" || {
    echo "fed chaos smoke: clipfed exited non-zero" >&2
    cat "$TMP/run1.out" "$TMP/run1.err" >&2
    exit 1
}

grep -q "aggregate-cap invariant: ok" "$TMP/run1.out" || {
    echo "fed chaos smoke: aggregate-cap audit not clean" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "zero jobs lost" "$TMP/run1.out" || {
    echo "fed chaos smoke: jobs were lost" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "^shard faults: 0 crashes, 0 partitions" "$TMP/run1.out" && {
    echo "fed chaos smoke: the fault stream never fired" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "evacuated" "$TMP/run1.out" || {
    echo "fed chaos smoke: no chaos summary printed" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
# Both settlement paths of the orphan reclaim must run: at least one
# lease orphaned, at least one of them force-reclaimed, none left over.
grep -Eq "^orphan reclaim: [1-9][0-9]* leases orphaned, [0-9]+ reclaimed \([1-9][0-9]* forced\), 0 outstanding$" "$TMP/run1.out" || {
    echo "fed chaos smoke: no orphaned lease, no forced reclaim, or leases left outstanding" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}

# The event ring logs decisions only: a scheduler-state snapshot there
# would crowd the rebalance decisions out of the bounded ring.
grep -q '"kind": "sched-state"' "$TMP/tel.json" && {
    echo "fed chaos smoke: the event ring holds sched-state snapshots" >&2
    exit 1
}
grep -q '"kind": "rebalance"' "$TMP/tel.json" || {
    echo "fed chaos smoke: the event ring holds no rebalance event" >&2
    exit 1
}

"$TMP/clipfed" $FLAGS > "$TMP/run2.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run2.out" || {
    echo "fed chaos smoke: repeat run diverged" >&2
    diff "$TMP/run1.out" "$TMP/run2.out" >&2 || true
    exit 1
}

# RunParallel must reproduce the serial chaos run byte for byte: every
# health transition, evacuation and orphan settlement is a
# federation-owned interaction point, so an armed stream keeps it
# stepping serially, with only the drain on the workers.
"$TMP/clipfed" $FLAGS -workers 4 > "$TMP/run4.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run4.out" || {
    echo "fed chaos smoke: parallel run (-workers 4) diverged from serial" >&2
    diff "$TMP/run1.out" "$TMP/run4.out" >&2 || true
    exit 1
}

echo "fed chaos smoke: ok (16 shards, shard faults armed, deterministic, parallel-identical, zero jobs lost)"
