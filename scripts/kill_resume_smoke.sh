#!/usr/bin/env bash
# Kill/resume smoke test against the real sweepexp binary: run a journaled
# figure matrix, SIGKILL the process mid-run (no cleanup handler gets to
# run — this is the crash the journal exists for), rerun with the same
# flags, and require the final journal's (key, digest) set to be identical
# to an uninterrupted run's. CI runs this on every push.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/sweepexp" ./cmd/sweepexp

echo "== clean reference run"
"$workdir/sweepexp" -exp fig6 -quick -journal "$workdir/clean.jsonl" >/dev/null

total=$(wc -l <"$workdir/clean.jsonl")
if [ "$total" -lt 8 ]; then
    echo "FAIL: clean run journaled only $total cells" >&2
    exit 1
fi

echo "== run to be killed"
"$workdir/sweepexp" -exp fig6 -quick -journal "$workdir/killed.jsonl" >/dev/null 2>&1 &
pid=$!
# Kill as soon as a few cells are durable but (hopefully) before the
# matrix completes. SIGKILL: the process gets no chance to flush or
# clean up.
for _ in $(seq 1 1000); do
    n=$(wc -l 2>/dev/null <"$workdir/killed.jsonl" || echo 0)
    [ "$n" -ge 5 ] && break
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.01
done
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
before=$(wc -l 2>/dev/null <"$workdir/killed.jsonl" || echo 0)
echo "   killed with $before/$total cells journaled"
if [ "$before" -ge "$total" ]; then
    echo "   (matrix finished before the kill landed — resume will be a pure cache run)"
fi

echo "== resume run"
"$workdir/sweepexp" -exp fig6 -quick -journal "$workdir/killed.jsonl" >/dev/null

# Compare the (key, digest) sets. Only well-formed lines count: a torn
# final line from the kill is expected, and the resume re-proves that cell.
extract() {
    grep -aE '^\{"format":1,"key":"[0-9a-f]{64}"' "$1" |
        sed -E 's/.*"key":"([0-9a-f]+)".*"digest":"([0-9a-f]+)".*/\1 \2/' |
        sort -u
}
if ! diff <(extract "$workdir/clean.jsonl") <(extract "$workdir/killed.jsonl"); then
    echo "FAIL: resumed journal digests differ from the uninterrupted run" >&2
    exit 1
fi
echo "PASS: $(extract "$workdir/clean.jsonl" | wc -l) cells byte-identical across SIGKILL + resume"
