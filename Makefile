GO ?= go

.PHONY: all build fmt-check test vet golden bench bench-json bench-telemetry chaos serve service-smoke dist-smoke check clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is its own module over this one; vetting it also proves it
# still compiles against the current tree.
vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

# Formatting gate: gofmt -l lists every file it would rewrite, and any
# listed file fails the target.
fmt-check:
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# The whole paper evaluation against its committed output: sweepexp -exp
# all must print docs/full_results.txt, trailing blank lines aside (the
# command substitution strips them), and journal the committed records:
# the sha256 of its journal's sorted (key, digest) pairs must equal
# docs/full_results.records.sha256. A change meant to change records (a
# sim.EngineVersion bump, a new sim.Result field) regenerates that file
# by writing the sha256 this target reports into it.
#
# The same run pins the evaluation's work: its -metrics counter lines for
# the cells simulated (sim.runs), served from an equivalent or an
# outage-free twin (exp.equivalent_hits, exp.twin_hits), distinct
# (store.misses) and repeated (store.mem_hits), and for the instructions
# and outages the simulated cells ran (sim.instructions, sim.outages)
# must equal docs/full_results.counts. Matrices run in order and a cell
# is only ever served from an earlier, finished one, so the counts repeat
# exactly, and a change in what is simulated fails here with no timing
# noise. A change meant to change them regenerates that file from the
# counter lines the failing diff prints (those marked >), or by running
# the grep below over `go run ./cmd/sweepexp -exp all -metrics -`.
golden:
	j=$$(mktemp) && m=$$(mktemp) && trap 'rm -f "$$j" "$$m"' EXIT && \
	out="$$($(GO) run ./cmd/sweepexp -exp all -journal "$$j" -metrics "$$m")" && \
	printf '%s\n' "$$out" | diff docs/full_results.txt - && \
	sum=$$(grep -aE '^\{"format":1,"key":"[0-9a-f]{64}"' "$$j" | \
		sed -E 's/.*"key":"([0-9a-f]+)".*"digest":"([0-9a-f]+)".*/\1 \2/' | \
		LC_ALL=C sort | sha256sum | cut -d' ' -f1) && \
	if [ "$$sum" != "$$(cat docs/full_results.records.sha256)" ]; then \
		echo "golden: the evaluation's records changed (sha256 $$sum)" >&2; exit 1; \
	fi && \
	if ! grep -E '^counter (sim\.runs|sim\.instructions|sim\.outages|exp\.equivalent_hits|exp\.twin_hits|store\.misses|store\.mem_hits)[[:space:]]' "$$m" | \
		diff docs/full_results.counts -; then \
		echo "golden: the evaluation's work changed (counters above)" >&2; exit 1; \
	fi

# The full evaluation-in-miniature: one benchmark per paper table/figure.
bench:
	$(GO) test -run xxx -bench . -benchmem .

# Engine micro-benchmarks (interpreter, energy accounting, power events)
# plus the two headline figure matrices, archived as machine-readable
# JSON; CI uploads the file as an artifact. The memory-hierarchy fast-path
# benchmarks run as a second pass with the default benchtime — they are
# nanosecond-scale, so 3 iterations would be pure noise. Everything runs
# at GOMAXPROCS=1, as recorded in BENCH_engine.json's context block: at
# N > 1 go test suffixes every benchmark name with -N, and bench-check
# would match none of the baseline's entries.
bench-json:
	export GOMAXPROCS=1; \
	{ $(GO) test -run '^$$' -bench 'BenchmarkEngineStep|BenchmarkRunOutageFree|BenchmarkRunRFHome|BenchmarkRunBatch' . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFig5OutageFree|BenchmarkFig6RFHome' -benchtime 3x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkCacheProbe|BenchmarkCacheDirtySweep|BenchmarkCacheInvalidate|BenchmarkBufferSearch' . ; } \
		| $(GO) run ./cmd/benchjson -o BENCH_engine.json
	@cat BENCH_engine.json

# The regression gate: fresh engine benchmarks vs the committed
# BENCH_engine.json baseline, failing on >15% sim-instrs/s loss.
# WARN=1 downgrades regressions to GitHub warning annotations (CI mode);
# a baseline benchmark missing from the fresh run fails in both modes.
bench-check:
	./scripts/bench_check.sh $(if $(WARN),-warn-only)

# Tracer overhead: disabled vs discard-sink vs JSONL-encoding runs.
bench-telemetry:
	$(GO) test -run xxx -bench BenchmarkTelemetry -benchmem .

# Resilience suite under the race detector plus a real SIGKILL
# kill/resume smoke against the sweepexp binary (docs/ROBUSTNESS.md).
chaos:
	$(GO) test -race -count=1 -run 'TestKillResume|TestPanicIsolation|TestRunMatrix|TestCellTimeout|TestCancel|TestOpenTolerance|TestAttemptSalting|TestPanicDeterminism|TestCorruptFile|TestRunBatch|TestSeedSweep' ./internal/exp/ ./internal/sim/ ./internal/journal/ ./internal/chaos/
	$(GO) test -race -count=1 ./internal/store/ ./internal/service/
	./scripts/kill_resume_smoke.sh

# Run the simulation server locally (docs/SERVICE.md); cmd/sweepctl is
# the client.
serve:
	$(GO) run ./cmd/sweepd -listen :8077 -store cells.jsonl

# Boot sweepd, replay a mixed workload through sweepctl, restart, and
# check digests survive every cache tier (scripts/service_smoke.sh).
service-smoke:
	./scripts/service_smoke.sh

# Distributed-campaign chaos: coordinator suite under the race detector,
# then three real workers vs SIGKILL / SIGSTOP-past-TTL / torn journal,
# with merged digests diffed against a single-process golden run
# (scripts/dist_smoke.sh).
dist-smoke:
	$(GO) test -race -count=1 ./internal/dist/
	./scripts/dist_smoke.sh

check: build fmt-check vet test golden

clean:
	$(GO) clean ./...
	rm -f out.jsonl out.trace.json *.cpu.pb.gz *.mem.pb.gz
