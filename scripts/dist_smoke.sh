#!/usr/bin/env bash
# Distributed-campaign chaos smoke against the real binaries: a
# sweepcoord coordinator farms a 64-cell matrix to three sweepd workers
# while the script works through the ISSUE's fault menu — one worker
# SIGKILLed mid-campaign, one SIGSTOPped so its leases hang past the TTL
# and must be re-issued, and one booted from a journal whose tail was
# torn. The campaign must finish with exit 0, report at least one
# expired lease, one connection failure, and one re-issue, and produce a
# digest file byte-identical to a single-process golden run. CI runs
# this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
w1_pid="" w2_pid="" w3_pid="" coord_pid=""
cleanup() {
    for p in "$w1_pid" "$w2_pid" "$w3_pid" "$coord_pid"; do
        [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

base=$((20000 + RANDOM % 20000))
w1="127.0.0.1:$base" w2="127.0.0.1:$((base + 1))" w3="127.0.0.1:$((base + 2))"
coord="127.0.0.1:$((base + 3))"

# The matrix: 8 quick workloads x 4 eval schemes x 2 seeds. -scale slows
# each cell to tens of milliseconds so the kill below lands mid-campaign
# instead of after the matrix has already drained.
MATRIX="-workloads quick -schemes eval -profile RFHome -seeds 2 -scale 40"
CELLS=64

# field FILE NAME: first value of "NAME": "..." in pretty-printed JSON.
field() {
    grep -m1 "\"$2\"" "$1" | sed -E 's/.*: *"?([^",]*)"?,?$/\1/'
}

start_worker() { # addr store -> pid on stdout
    "$workdir/sweepd" -listen "$1" -store "$2" >>"$workdir/sweepd-$1.log" 2>&1 &
    local pid=$!
    "$workdir/sweepctl" -server "$1" -timeout 10s wait
    echo "$pid"
}

echo "== build"
go build -o "$workdir" ./cmd/sweepd ./cmd/sweepctl ./cmd/sweepcoord

echo "== golden single-process run ($CELLS cells)"
"$workdir/sweepcoord" -local $MATRIX -digests "$workdir/golden.txt" \
    >"$workdir/golden.json" 2>"$workdir/golden.log"
golden_lines=$(wc -l <"$workdir/golden.txt")
if [ "$golden_lines" != "$CELLS" ]; then
    echo "FAIL: golden run produced $golden_lines digests, want $CELLS" >&2
    exit 1
fi

echo "== worker 3: pre-populate journal, then tear its tail"
w3_pid=$(start_worker "$w3" "$workdir/w3.jsonl")
for cell in "sha Sweep-EmptyBit" "sha NVP" "fft Sweep-EmptyBit"; do
    set -- $cell
    "$workdir/sweepctl" -server "$w3" cell -workload "$1" -scheme "$2" \
        -profile RFHome -scale 40 -seed 1 >/dev/null
done
kill -TERM "$w3_pid" && wait "$w3_pid" 2>/dev/null || true
w3_pid=""
truncate -s -17 "$workdir/w3.jsonl"
w3_pid=$(start_worker "$w3" "$workdir/w3.jsonl")
"$workdir/sweepctl" -server "$w3" stats >"$workdir/w3-stats.json"
corrupt=$(field "$workdir/w3-stats.json" Corrupt)
if [ "${corrupt:-0}" -lt 1 ]; then
    echo "FAIL: torn journal tail not detected (Corrupt=$corrupt)" >&2
    cat "$workdir/w3-stats.json" >&2
    exit 1
fi
echo "   worker 3 booted over torn journal: Corrupt=$corrupt, Loaded=$(field "$workdir/w3-stats.json" Loaded)"

echo "== workers 1+2 up; worker 2 SIGSTOPped (leases will hang past the TTL)"
w1_pid=$(start_worker "$w1" "$workdir/w1.jsonl")
w2_pid=$(start_worker "$w2" "$workdir/w2.jsonl")
kill -STOP "$w2_pid"

echo "== distributed campaign: 3 workers, ttl 3s"
# -hedge 50 keeps the straggler hedger out of the way so the hung worker
# is rescued by lease expiry — the path this smoke is proving. (Hedged
# re-dispatch has its own -race test in internal/dist.)
"$workdir/sweepcoord" -workers "$w1,$w2,$w3" $MATRIX \
    -ttl 3s -hedge 50 -attempts 3 -lanes 2 -timeout 180s -listen "$coord" \
    -journal "$workdir/merged.jsonl" -digests "$workdir/merged.txt" \
    >"$workdir/report.json" 2>"$workdir/coord.log" &
coord_pid=$!

# Let a few completions become durable, then SIGKILL worker 1 — no drain,
# no cleanup; its in-flight leases die with it.
for _ in $(seq 1 600); do
    n=$(wc -l 2>/dev/null <"$workdir/merged.jsonl" || echo 0)
    [ "$n" -ge 2 ] && break
    kill -0 "$coord_pid" 2>/dev/null || break
    sleep 0.05
done
kill -9 "$w1_pid" 2>/dev/null || true
echo "   worker 1 SIGKILLed with $(wc -l 2>/dev/null <"$workdir/merged.jsonl" || echo 0)/$CELLS cells merged"

# Hold worker 2 past the lease TTL so its leases expire and re-issue,
# then wake it to rejoin the fleet.
sleep 4
kill -CONT "$w2_pid"
echo "   worker 2 resumed after the TTL window"

if ! wait "$coord_pid"; then
    echo "FAIL: coordinator exited non-zero" >&2
    tail -30 "$workdir/coord.log" >&2
    exit 1
fi
coord_pid=""

echo "== merged digests byte-identical to golden"
if ! diff "$workdir/golden.txt" "$workdir/merged.txt"; then
    echo "FAIL: merged digests differ from the single-process golden run" >&2
    exit 1
fi
merged_lines=$(wc -l <"$workdir/merged.jsonl")
if [ "$merged_lines" != "$CELLS" ]; then
    echo "FAIL: merged journal has $merged_lines lines, want $CELLS" >&2
    exit 1
fi

echo "== chaos actually happened"
expired=$(field "$workdir/report.json" expired)
reissues=$(field "$workdir/report.json" reissues)
conn=$(field "$workdir/report.json" conn_failures)
if [ "${expired:-0}" -lt 1 ]; then
    echo "FAIL: no lease expired — the hung worker was never timed out" >&2
    grep -v '"' "$workdir/report.json" >&2 || true
    exit 1
fi
if [ "${conn:-0}" -lt 1 ]; then
    echo "FAIL: no connection failures — the SIGKILL was not observed" >&2
    exit 1
fi
if [ "${reissues:-0}" -lt 1 ]; then
    echo "FAIL: no leases re-issued" >&2
    exit 1
fi

echo "PASS: $CELLS cells byte-identical across SIGKILL + hung worker + torn journal" \
    "(expired=$expired conn_failures=$conn reissues=$reissues)"
