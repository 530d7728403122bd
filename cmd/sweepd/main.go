// Command sweepd serves simulation results over HTTP: simulation-as-a-
// service on top of the experiment engine. A request names one cell
// (workload × scheme × supply profile × seed × scale × params) and the
// server answers from its result store — one in-memory index over the
// durable append-only journal — simulating only on a miss, with
// concurrent identical requests collapsed onto one simulation. A hit
// is "disk" when the journal held the cell at start-up and "memory"
// when this daemon computed it.
//
// Usage:
//
//	sweepd -listen :8077 -store cells.jsonl
//	sweepd -listen :8077 -store cells.jsonl -maxsim 4
//
// Endpoints: POST /v1/cell, POST /v1/cells, GET /v1/stats, plus the
// standard introspection plane (/metrics, /progress, /healthz,
// /runinfo). Restarting the daemon over the same -store serves every
// previously simulated cell from disk. See docs/SERVICE.md; cmd/sweepctl
// is the client.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	listen := flag.String("listen", ":8077", "address to serve on")
	storePath := flag.String("store", "", "durable journal path ('' = memory-only, no restarts)")
	maxSim := flag.Int("maxsim", 0, "max concurrent simulations (0 = NumCPU); cache hits are never gated")
	cellTimeout := flag.Duration("celltimeout", 0, "per-simulation wall-clock bound (0 = none)")
	chaosSpec := flag.String("chaos", "", "fault-injection spec for simulations (testing only)")
	logfmt := flag.String("logfmt", "text", "log format: text|json")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logfmt, *verbose)
	if err != nil {
		slog.Error("sweepd: bad -logfmt", "err", err)
		os.Exit(2)
	}
	fail := func(msg string, args ...any) {
		log.Error(msg, args...)
		os.Exit(1)
	}

	cfg := service.Config{
		StorePath:   *storePath,
		MaxSim:      *maxSim,
		CellTimeout: *cellTimeout,
		Tracker:     obs.NewCampaignTracker(log),
		Log:         log,
	}
	if *chaosSpec != "" {
		ccfg, err := chaos.Parse(*chaosSpec)
		if err != nil {
			fail("chaos spec invalid", "spec", *chaosSpec, "err", err)
		}
		cfg.Chaos = chaos.New(ccfg)
	}
	svc, err := service.New(cfg)
	if err != nil {
		fail("store open failed", "path", *storePath, "err", err)
	}
	defer svc.Close()

	info := obs.NewRunInfo("sweepd", sim.EngineVersion)
	info.Journal = *storePath
	if *chaosSpec != "" {
		info.ChaosSpec = *chaosSpec
	}
	srv := &http.Server{Handler: svc.Handler(info), ReadHeaderTimeout: obs.ReadHeaderTimeout}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("listen failed", "addr", *listen, "err", err)
	}

	st := svc.Store().Stats()
	log.Info("sweepd serving",
		"addr", ln.Addr().String(), "store", *storePath,
		"cells_loaded", st.Disk.Loaded,
		"engine", sim.EngineVersion)

	// The first SIGINT/SIGTERM shuts down gracefully: Shutdown closes the
	// listener, so a coordinator's next lease meets a refused connection
	// and is re-issued elsewhere, while in-flight requests get the grace
	// to finish. A second signal kills the process via the restored
	// default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("server failed", "err", err)
		}
	case <-ctx.Done():
		log.Info("shutting down", "grace", obs.ShutdownGrace)
		sctx, cancel := context.WithTimeout(context.Background(), obs.ShutdownGrace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Warn("graceful shutdown incomplete, closing", "err", err)
			srv.Close()
		}
	}

	final := svc.Store().Stats()
	log.Info("sweepd stopped",
		"mem_hits", final.MemHits, "disk_hits", final.DiskHits,
		"misses", final.Misses, "dedup_collapses", final.DedupCollapses,
		"errors", final.Errors)
}
