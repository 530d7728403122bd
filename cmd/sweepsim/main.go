// Command sweepsim runs one benchmark on one scheme under one power trace
// and prints a full report: timing, outages, energy ledger, cache and
// persist-buffer behaviour, and region statistics.
//
// Usage:
//
//	sweepsim -bench sha -scheme sweep-eb -trace rfoffice
//	sweepsim -bench dijkstra -scheme nvp -trace none
//	sweepsim -bench sha -scheme sweep-eb -tracefile out.jsonl
//	sweepsim -bench sha -metrics - -pprof prof
//	sweepsim -list
//
// -tracefile records the run's telemetry events as JSONL (one event per
// line; see docs/TELEMETRY.md); `sweeptrace -chrome` converts the file to
// Chrome trace_event format, loadable in Perfetto or chrome://tracing.
// -metrics writes the run's metrics snapshot as text ("-" for stdout).
// -pprof <prefix> writes <prefix>.cpu.pb.gz and <prefix>.mem.pb.gz for
// `go tool pprof`. -listen serves live /metrics, /progress, /healthz,
// and /runinfo while the simulation runs (docs/OBSERVABILITY.md);
// -logfmt/-v control the structured stderr logging.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// logger is the process logger, installed by main before any fail().
var logger = slog.Default()

var schemeNames = map[string]arch.Kind{
	"nvp":       arch.NVP,
	"wt":        arch.WTVCache,
	"nvsram":    arch.NVSRAM,
	"nvsram-e":  arch.NVSRAME,
	"replay":    arch.ReplayCache,
	"sweep-nvm": arch.SweepNVMSearch,
	"sweep-eb":  arch.SweepEmptyBit,
	"nvmr":      arch.NvMR,
}

var traceNames = map[string]trace.Profile{
	"rfhome":   trace.RFHome,
	"rfoffice": trace.RFOffice,
	"solar":    trace.Solar,
	"thermal":  trace.Thermal,
}

func main() {
	bench := flag.String("bench", "sha", "workload name")
	scheme := flag.String("scheme", "sweep-eb", "scheme: nvp|wt|nvsram|nvsram-e|replay|sweep-nvm|sweep-eb|nvmr")
	traceName := flag.String("trace", "rfoffice", "power trace: rfhome|rfoffice|solar|thermal|none")
	seed := flag.Int64("seed", 1, "trace seed")
	scale := flag.Int("scale", 1, "workload scale")
	capNF := flag.Float64("cap", 470, "capacitor size in nF")
	cacheKB := flag.Int("cache", 4, "cache size in kB")
	tracefile := flag.String("tracefile", "", "write telemetry events as JSONL to this file")
	metricsFile := flag.String("metrics", "", "write the metrics snapshot as text to this file ('-' = stdout)")
	pprofPrefix := flag.String("pprof", "", "write <prefix>.cpu.pb.gz and <prefix>.mem.pb.gz profiles")
	paramsFile := flag.String("params", "", "JSON file of config.Params overrides (validated before the run)")
	timeout := flag.Duration("timeout", 0, "cancel the simulation after this duration (0 = none)")
	listen := flag.String("listen", "", "serve live /metrics, /progress, /healthz, /runinfo on this address (e.g. :8090)")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	list := flag.Bool("list", false, "list workloads and schemes")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("sweepsim: bad -logfmt", "err", err)
		os.Exit(2)
	}
	logger = log

	if *list {
		fmt.Println("workloads:", strings.Join(workloads.Names(), " "))
		fmt.Println("schemes:   nvp wt nvsram nvsram-e replay sweep-nvm sweep-eb nvmr")
		fmt.Println("traces:    rfhome rfoffice solar thermal none")
		return
	}

	kind, ok := schemeNames[*scheme]
	if !ok {
		fail("unknown scheme %q", *scheme)
	}
	w, err := workloads.ByName(*bench)
	if err != nil {
		fail("%v", err)
	}
	var src trace.Source
	if *traceName != "none" {
		pr, ok := traceNames[*traceName]
		if !ok {
			fail("unknown trace %q", *traceName)
		}
		src = trace.New(pr, *seed)
	}

	p := config.Default()
	if *paramsFile != "" {
		raw, err := os.ReadFile(*paramsFile)
		if err != nil {
			fail("%v", err)
		}
		p, err = config.FromJSON(raw)
		if err != nil {
			fail("-params %s: %v", *paramsFile, err)
		}
	}
	// The -cap/-cache conveniences only apply when given explicitly, so
	// their defaults cannot silently clobber a -params file.
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cap":
			p.CapacitorF = *capNF * 1e-9
		case "cache":
			p.CacheSize = *cacheKB << 10
		}
	})
	if err := p.Validate(); err != nil {
		fail("%v", err)
	}

	// Live introspection: a one-cell campaign. /metrics carries the
	// final simulation snapshot once the run completes.
	var tracker *obs.CampaignTracker
	var resSnap atomic.Pointer[telemetry.Snapshot]
	if *listen != "" {
		tracker = obs.NewCampaignTracker(log)
		info := obs.NewRunInfo("sweepsim", sim.EngineVersion)
		info.ParamsFP = p.Fingerprint()
		info.Seed = *seed
		info.Scale = *scale
		srv := &obs.Server{Info: info, Tracker: tracker, Log: log,
			Extra: func() *telemetry.Snapshot {
				if s := resSnap.Load(); s != nil {
					return s
				}
				return telemetry.NewSnapshot()
			}}
		_, shutdown, err := srv.Serve(*listen)
		if err != nil {
			fail("%v", err)
		}
		defer shutdown()
		tracker.AddCells([]obs.CellMeta{{Workload: *bench, Scheme: *scheme, Profile: *traceName}})
	}

	if *pprofPrefix != "" {
		stop, err := telemetry.StartProfiles(*pprofPrefix)
		if err != nil {
			fail("%v", err)
		}
		defer func() {
			if err := stop(); err != nil {
				fail("%v", err)
			}
		}()
	}

	var tr *telemetry.Tracer
	var traceFile *os.File
	if *tracefile != "" {
		traceFile, err = os.Create(*tracefile)
		if err != nil {
			fail("%v", err)
		}
		tr = telemetry.NewTracer(telemetry.NewJSONLSink(traceFile), 0)
	}

	// Ctrl-C / SIGTERM (or -timeout) abort the simulation at its next
	// epoch boundary and exit 130.
	runCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(runCtx, *timeout)
		defer cancel()
	}

	build := func() *ir.Program { return w.Build(*scale) }
	tracker.Start(0, 0)
	res, err := core.RunTracedCtx(runCtx, build, kind, p, src, tr)
	if cerr := tr.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		tracker.Fail(0, 0, err, false)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			logger.Error("interrupted", "err", err)
			os.Exit(130)
		}
		fail("%v", err)
	}
	tracker.Done(0, 0)
	resSnap.Store(res.Metrics())

	fmt.Printf("%s on %s", *bench, res.Scheme)
	if src != nil {
		fmt.Printf(" under %s (seed %d)", *traceName, *seed)
	}
	fmt.Printf("\n\n")
	fmt.Print(res)
	fmt.Printf("checksum       %#x\n", res.NVM.PeekWord(workloads.CheckAddr()))

	if *metricsFile != "" {
		out := os.Stdout
		if *metricsFile != "-" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fail("%v", err)
			}
			defer f.Close()
			out = f
		} else {
			fmt.Println()
		}
		if err := res.Metrics().WriteText(out); err != nil {
			fail("%v", err)
		}
	}
}

func fail(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
