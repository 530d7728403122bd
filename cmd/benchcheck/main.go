// Command benchcheck is the benchmark-regression gate: it diffs a fresh
// benchjson document against the committed baseline (BENCH_engine.json)
// on one metric and fails when any benchmark regresses beyond the
// tolerance. scripts/bench_check.sh wires the fresh run; CI runs it with
// -warn-only so shared-runner noise annotates instead of failing. An
// incomplete comparison (a baseline benchmark missing from the fresh run)
// fails even then: a missing or renamed benchmark is a fact about the
// code, not runner noise.
//
// Usage:
//
//	go run ./cmd/benchcheck -baseline BENCH_engine.json -current fresh.json
//	go run ./cmd/benchcheck -baseline BENCH_engine.json -current fresh.json -warn-only
//
// The default metric, sim-instrs/s, is higher-better; pass
// -higher-better=false for latency metrics like ns/op.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/obs"
)

func main() {
	baseline := flag.String("baseline", "BENCH_engine.json", "baseline benchjson document")
	current := flag.String("current", "", "fresh benchjson document to gate (required)")
	metric := flag.String("metric", "sim-instrs/s", "metric to compare")
	tolerance := flag.Float64("tolerance", 0.15, "allowed relative regression (0.15 = 15%)")
	higherBetter := flag.Bool("higher-better", true, "larger metric values are better (false for ns/op-style metrics)")
	warnOnly := flag.Bool("warn-only", false, "report regressions as GitHub warning annotations instead of failing (CI-noise mode); an incomplete comparison still fails")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("benchcheck: bad -logfmt", "err", err)
		os.Exit(2)
	}
	if *current == "" {
		log.Error("missing -current document")
		os.Exit(2)
	}
	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		log.Error("baseline unreadable", "err", err)
		os.Exit(2)
	}
	cur, err := benchfmt.ReadFile(*current)
	if err != nil {
		log.Error("current unreadable", "err", err)
		os.Exit(2)
	}

	deltas, incomplete := benchfmt.Compare(base, cur, *metric, *tolerance, *higherBetter)

	regressed := 0
	for _, d := range deltas {
		attrs := []any{
			"bench", d.Name, "metric", *metric,
			"baseline", d.Base, "current", d.Current, "change", d.Change(),
		}
		if d.Regressed {
			regressed++
			log.Warn("regression", attrs...)
			if *warnOnly {
				fmt.Printf("::warning title=bench regression::%s %s %s (baseline %g, current %g, tolerance %.0f%%)\n",
					d.Name, *metric, d.Change(), d.Base, d.Current, *tolerance*100)
			}
		} else {
			log.Info("ok", attrs...)
		}
	}
	log.Info("benchcheck summary",
		"baseline", *baseline,
		"baseline_commit", base.Context["git-commit"],
		"baseline_engine", base.Context["engine"],
		"current_commit", cur.Context["git-commit"],
		"compared", len(deltas), "regressed", regressed,
		"tolerance", *tolerance)
	if incomplete != nil {
		// Missing benchmarks gate in every mode: a comparison that
		// silently skips entries would pass on an empty run.
		log.Error("comparison incomplete", "err", incomplete)
		if *warnOnly {
			fmt.Printf("::error title=benchcheck::%v\n", incomplete)
		}
		os.Exit(1)
	}
	if regressed > 0 && !*warnOnly {
		os.Exit(1)
	}
}
