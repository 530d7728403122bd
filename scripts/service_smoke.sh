#!/usr/bin/env bash
# Service smoke test against the real binaries: boot sweepd over a fresh
# store, replay a mixed workload through sweepctl (concurrent identical
# and distinct requests via the load generator), then restart the daemon
# over the same store and require the cell to come back from the disk
# tier with the digest it had when it was first simulated, on every
# request: a tier names the record's origin, and the journal proved this
# one before the daemon started. Last, a cell that fails on every
# request must leave the daemon in service: /healthz stays ok and other
# cells are still served. CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

addr="127.0.0.1:$((20000 + RANDOM % 20000))"
ctl() { "$workdir/sweepctl" -server "$addr" "$@"; }

# field FILE NAME: first value of "NAME": "..." in pretty-printed JSON.
field() {
    grep -m1 "\"$2\"" "$1" | sed -E 's/.*: *"?([^",]*)"?,?$/\1/'
}

start_daemon() {
    "$workdir/sweepd" -listen "$addr" -store "$workdir/cells.jsonl" \
        >>"$workdir/sweepd.log" 2>&1 &
    daemon_pid=$!
    ctl -timeout 10s wait
}

stop_daemon() {
    kill -TERM "$daemon_pid"
    wait "$daemon_pid" 2>/dev/null || true
    daemon_pid=""
}

echo "== build"
go build -o "$workdir" ./cmd/sweepd ./cmd/sweepctl

cat >"$workdir/cells.json" <<'EOF'
[
  {"workload": "sha", "scheme": "Sweep-EmptyBit", "profile": "RFHome", "seed": 1},
  {"workload": "sha", "scheme": "NVP", "profile": "RFHome", "seed": 1},
  {"workload": "adpcmenc", "scheme": "Sweep-EmptyBit", "seed": 1}
]
EOF

echo "== boot sweepd on $addr"
start_daemon

echo "== mixed load: 8 clients x 3 repeats over 3 distinct cells"
ctl load -file "$workdir/cells.json" -clients 8 -repeat 3 >"$workdir/load.json"
grep -q '"failures": 0' "$workdir/load.json" ||
    { echo "FAIL: load scenario had failures"; cat "$workdir/load.json"; exit 1; }

echo "== misses bounded by distinct cell count"
ctl stats >"$workdir/stats.json"
misses=$(field "$workdir/stats.json" misses)
if [ "$misses" != "3" ]; then
    echo "FAIL: $misses simulations for 3 distinct cells (dedup/memoization broken)" >&2
    cat "$workdir/stats.json" >&2
    exit 1
fi

echo "== repeat request is a memory hit"
ctl cell -workload sha -scheme Sweep-EmptyBit -profile RFHome >"$workdir/warm.json"
tier=$(field "$workdir/warm.json" tier)
digest=$(field "$workdir/warm.json" digest)
if [ "$tier" != "memory" ] || [ -z "$digest" ]; then
    echo "FAIL: warm request served from tier '$tier'" >&2
    cat "$workdir/warm.json" >&2
    exit 1
fi

echo "== restart: same cell from the disk tier, same digest"
stop_daemon
start_daemon
ctl cell -workload sha -scheme Sweep-EmptyBit -profile RFHome >"$workdir/cold.json"
cold_tier=$(field "$workdir/cold.json" tier)
cold_digest=$(field "$workdir/cold.json" digest)
if [ "$cold_tier" != "disk" ]; then
    echo "FAIL: post-restart request served from tier '$cold_tier', want disk" >&2
    cat "$workdir/cold.json" >&2
    exit 1
fi
if [ "$cold_digest" != "$digest" ]; then
    echo "FAIL: digest drifted across restart: $digest -> $cold_digest" >&2
    exit 1
fi

echo "== repeat after restart: still the disk tier"
ctl cell -workload sha -scheme Sweep-EmptyBit -profile RFHome >"$workdir/again.json"
again_tier=$(field "$workdir/again.json" tier)
again_digest=$(field "$workdir/again.json" digest)
if [ "$again_tier" != "disk" ] || [ "$again_digest" != "$digest" ]; then
    echo "FAIL: repeat after restart served from tier '$again_tier' (want disk), digest $again_digest" >&2
    cat "$workdir/again.json" >&2
    exit 1
fi

echo "== a failing cell leaves the daemon in service"
# sha's data does not fit a 4 KiB NVM: the engine refuses the cell, a
# 500, on every request.
echo '{"NVMSize": 4096}' >"$workdir/small.json"
for i in 1 2 3; do
    if ctl cell -workload sha -scheme NVP -params "$workdir/small.json" \
        >"$workdir/poisoned.json" 2>"$workdir/poisoned.err"; then
        echo "FAIL: poisoned request $i served" >&2
        cat "$workdir/poisoned.json" >&2
        exit 1
    fi
done
grep -q 'past the 4096 B NVM' "$workdir/poisoned.err" ||
    { echo "FAIL: poisoned request failed for another reason" >&2; cat "$workdir/poisoned.err" >&2; exit 1; }
ctl -timeout 5s wait ||
    { echo "FAIL: /healthz not ok after 3 failing requests" >&2; exit 1; }
ctl cell -workload sha -scheme Sweep-EmptyBit -profile RFHome >"$workdir/after.json"
after_digest=$(field "$workdir/after.json" digest)
if [ "$after_digest" != "$digest" ]; then
    echo "FAIL: healthy cell after failing requests: digest '$after_digest', want $digest" >&2
    cat "$workdir/after.json" >&2
    exit 1
fi
stop_daemon

echo "PASS: 72 requests, 3 simulations, digest $digest stable across memory/disk/restart; 3 failing requests left /healthz ok"
