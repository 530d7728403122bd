package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// RunInfo is the /runinfo manifest: everything needed to attribute and
// reproduce a running campaign. Fields the binary does not use are
// simply left empty.
type RunInfo struct {
	RunID      string    `json:"run_id"`
	Binary     string    `json:"binary"`
	Engine     string    `json:"engine"` // sim.EngineVersion
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	PID        int       `json:"pid"`
	StartedAt  time.Time `json:"started_at"`

	Experiment string `json:"experiment,omitempty"`
	ParamsFP   string `json:"params_fp,omitempty"` // config.Params.Fingerprint()
	Seed       int64  `json:"seed,omitempty"`
	Scale      int    `json:"scale,omitempty"`
	Journal    string `json:"journal,omitempty"`
	ChaosSpec  string `json:"chaos,omitempty"`
	ChaosSeed  int64  `json:"chaos_seed,omitempty"`
}

// NewRunInfo fills the process-derived fields (run ID, go version,
// GOMAXPROCS, PID, start time) for the named binary; the caller sets
// the campaign-specific rest.
func NewRunInfo(binary, engine string) RunInfo {
	return RunInfo{
		RunID:      NewRunID(),
		Binary:     binary,
		Engine:     engine,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PID:        os.Getpid(),
		StartedAt:  time.Now(),
	}
}

// NewRunID returns a fresh 64-bit random run identifier in hex.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform is broken; a timestamp
		// still distinguishes runs well enough for a manifest.
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// Server wires the introspection endpoints over a tracker and an
// optional extra metrics source (the experiment context's accumulated
// simulation metrics). Tracker and Extra may both be nil; every
// endpoint degrades to an empty-but-valid document.
type Server struct {
	Info    RunInfo
	Tracker *CampaignTracker
	// Extra, when non-nil, returns additional metrics to merge into
	// /metrics (called per scrape; must be safe for concurrent use).
	Extra func() *telemetry.Snapshot
	Log   *slog.Logger
}

// Handler returns the introspection mux: /metrics, /progress, /healthz,
// /runinfo. /healthz is a liveness probe: it answers 200 "ok" for as
// long as the process serves.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /runinfo", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, s.Info)
	})
	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, r *http.Request) {
		s.writeJSON(w, s.Tracker.Progress())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Tracker.Metrics()
		if s.Extra != nil {
			if err := snap.Merge(s.Extra()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, snap); err != nil && s.Log != nil {
			s.Log.Debug("metrics write aborted", "err", err)
		}
	})
	return mux
}

// writeJSON encodes v to the response. An Encode failure after the first
// byte is on the wire cannot change the status code anymore, but it is
// never silently dropped: it is logged so an operator tailing the server
// log can tell a truncated scrape from a healthy one.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log := s.Log
		if log == nil {
			log = slog.Default()
		}
		log.Warn("obs: response encode failed", "err", err)
	}
}

// ShutdownGrace is how long Serve's shutdown function waits for in-flight
// responses to complete before tearing connections down hard.
const ShutdownGrace = 2 * time.Second

// ReadHeaderTimeout bounds how long a connection may take to send its
// request headers, so an idle or trickling client cannot pin a
// goroutine and a file descriptor. Serve and cmd/sweepd both set it.
const ReadHeaderTimeout = 5 * time.Second

// Serve binds addr (e.g. ":8090") and serves the introspection
// endpoints in the background until the returned shutdown function is
// called. The bind itself is synchronous so a bad -listen value fails
// fast at startup; the bound address (useful with ":0") is returned.
//
// Shutdown is graceful: in-flight /progress and /metrics responses get
// ShutdownGrace to finish — a scrape racing campaign completion sees a
// whole document, not a cut connection — and only connections still open
// after the grace period are closed hard.
func (s *Server) Serve(addr string) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	log := s.Log
	if log == nil {
		log = slog.Default()
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: ReadHeaderTimeout}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Error("introspection server failed", "addr", addr, "err", err)
		}
	}()
	log.Info("introspection server listening",
		"addr", ln.Addr().String(), "run_id", s.Info.RunID,
		"endpoints", "/metrics /progress /healthz /runinfo")
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Grace expired (or the context machinery failed): close hard
			// rather than leak the listener and hang the caller.
			log.Warn("obs: graceful shutdown incomplete — closing hard", "err", err)
			srv.Close()
		}
	}
	return ln.Addr().String(), shutdown, nil
}
