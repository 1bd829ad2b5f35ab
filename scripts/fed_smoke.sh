#!/bin/sh
# fed_smoke.sh — drive a 16-shard federation with cross-shard power
# lending through cmd/clipfed on a fixed seed, require zero lost jobs
# and a clean aggregate-cap audit, and byte-compare two runs to pin the
# shared-clock determinism guarantee. Wired into `make check`.
set -eu

cd "$(dirname "$0")/.."
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go build -o "$TMP/clipfed" ./cmd/clipfed

FLAGS="-shards 16 -nodes 4 -budget 400 -jobs 128 -gap 2 -seed 7 -routing locality"
"$TMP/clipfed" $FLAGS > "$TMP/run1.out" 2>"$TMP/run1.err" || {
    echo "fed smoke: clipfed exited non-zero" >&2
    cat "$TMP/run1.out" "$TMP/run1.err" >&2
    exit 1
}

grep -q "aggregate-cap invariant: ok" "$TMP/run1.out" || {
    echo "fed smoke: aggregate-cap audit not clean" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "zero jobs lost" "$TMP/run1.out" || {
    echo "fed smoke: jobs were lost" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}
grep -q "^leases: 0 granted" "$TMP/run1.out" && {
    echo "fed smoke: lending never engaged" >&2
    cat "$TMP/run1.out" >&2
    exit 1
}

"$TMP/clipfed" $FLAGS > "$TMP/run2.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run2.out" || {
    echo "fed smoke: repeat run diverged" >&2
    diff "$TMP/run1.out" "$TMP/run2.out" >&2 || true
    exit 1
}

# RunParallel must reproduce Run byte for byte — same jobs, leases and
# audit verdict. With lending active it steps serially and drains on
# the workers.
"$TMP/clipfed" $FLAGS -workers 4 > "$TMP/run4.out" 2>/dev/null
cmp -s "$TMP/run1.out" "$TMP/run4.out" || {
    echo "fed smoke: RunParallel serial fallback (-workers 4) diverged from Run" >&2
    diff "$TMP/run1.out" "$TMP/run4.out" >&2 || true
    exit 1
}

# With lending off, locality routing takes the partitioned replay: the
# one path that runs shard events concurrently. The telemetry report
# proves which path ran: one replay at -workers 4, none at -workers 1
# (which calls Run), so a silent fallback to serial stepping fails here
# even though its output would match.
"$TMP/clipfed" $FLAGS -lend=false -telemetry-out "$TMP/part1.json" > "$TMP/part1.out" 2>/dev/null
"$TMP/clipfed" $FLAGS -lend=false -workers 4 -telemetry-out "$TMP/part4.json" > "$TMP/part4.out" 2>/dev/null
for run in 1:0 4:1; do
    w=${run%%:*} want=${run#*:}
    got=$(sed -n 's/.*"clip_fed_windows_total": \([0-9]*\).*/\1/p' "$TMP/part$w.json")
    [ "$got" = "$want" ] || {
        echo "fed smoke: -lend=false -workers $w ran ${got:-no} partitioned replays, want $want" >&2
        exit 1
    }
done
cmp -s "$TMP/part1.out" "$TMP/part4.out" || {
    echo "fed smoke: partitioned replay (-lend=false -workers 4) diverged from serial" >&2
    diff "$TMP/part1.out" "$TMP/part4.out" >&2 || true
    exit 1
}

echo "fed smoke: ok (16 shards, lending active, deterministic, parallel-identical, partitioned-identical, zero jobs lost)"
