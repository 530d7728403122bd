// Package service is simulation-as-a-service: the layer that turns the
// batch experiment engine into a server. A request names one experiment
// cell — workload × scheme × supply profile × seed × scale × params —
// and the service serves its result from the store (internal/store:
// one index, the journal's, over the durable journal file when there is
// one), only simulating on a miss, with singleflight collapsing
// concurrent identical requests into one simulation.
//
// Simulation reuses the matrix-cell machinery of internal/exp
// (exp.Context.RunSingle): panic isolation, per-cell timeouts, chaos
// injection, and the process-wide compile cache, so a served cell is
// bit-identical to the same cell in a batch campaign — the journal's
// content-hash key guarantees it can never be anything else.
//
// cmd/sweepd wraps this package in a binary; cmd/sweepctl is the
// client. See docs/SERVICE.md.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// OutageFree is the profile name selecting an ideal supply (no power
// trace). An empty profile means the same thing.
const OutageFree = "outage-free"

// CellRequest names one experiment cell. Zero values pick the
// evaluation defaults: scale 1, seed 1, Table 1 params, outage-free
// supply.
type CellRequest struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	// Profile is a supply trace name (RFHome, RFOffice, solar, thermal)
	// or "outage-free"/"" for an ideal supply.
	Profile string `json:"profile,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	// Params, when present, is a partial config.Params override decoded
	// on top of the Table 1 defaults (exactly the -params file format);
	// unknown fields and invalid merges are rejected.
	Params json.RawMessage `json:"params,omitempty"`
}

// CellResponse is the served result of one cell.
type CellResponse struct {
	// Key is the cell's content-hash store key.
	Key  string       `json:"key"`
	Cell journal.Cell `json:"cell"`
	// Tier says where the record came from: "disk" (the journal held
	// it when the daemon started), "memory" (the daemon simulated it
	// since), or "simulated" (a miss — including requests collapsed onto
	// another request's in-flight simulation).
	Tier string `json:"tier"`
	// Digest is the record's content digest; every tier and every
	// replica serves the same digest for the same key.
	Digest    string          `json:"digest"`
	ElapsedNs int64           `json:"elapsed_ns"`
	Record    *journal.Record `json:"record,omitempty"`
}

// RequestError marks a client-side fault (unknown workload, bad params);
// the HTTP layer renders it as 400 instead of 500.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// Config assembles a Service.
type Config struct {
	// StorePath is the store's journal file; empty runs memory-only
	// (no durability, cold restarts).
	StorePath string
	// Deprecated: MemCap is ignored. The store holds every record in its
	// journal's index, with no memory bound of its own.
	MemCap int
	// MaxSim bounds concurrent simulations; <=0 = NumCPU. Cache hits are
	// never gated.
	MaxSim int
	// CellTimeout bounds one simulation's wall clock (0 = none).
	CellTimeout time.Duration
	// Chaos, when non-nil, injects deterministic faults into simulations
	// (testing only).
	Chaos *chaos.Injector
	// Tracker, when non-nil, follows simulated cells through the obs
	// state machine for /progress. Only misses register — hits would
	// grow the tracker without bound on a long-lived server.
	Tracker *obs.CampaignTracker
	Log     *slog.Logger
}

// Service serves memoized simulation results. Safe for concurrent use.
type Service struct {
	store       *store.Store
	log         *slog.Logger
	tracker     *obs.CampaignTracker
	chaos       *chaos.Injector
	cellTimeout time.Duration
	// sem holds simulation slots; the slot index doubles as the obs
	// worker id, so /progress shows MaxSim stable worker rows.
	sem chan int

	// workerID identifies this daemon in lease responses; Handler
	// overrides the default with the run ID from /runinfo so the two
	// always agree.
	workerID string

	// defaultFP is Table 1's params fingerprint, computed once: the key
	// of every request that carries no params.
	defaultFP string

	// The service's counters, read by Stats and MetricsSnapshot while
	// requests run: every Cell call, the bad ones among them, failed
	// ones, and leases served.
	requests, badRequests, failures, leases atomic.Uint64
}

// New builds the service and opens its store.
func New(cfg Config) (*Service, error) {
	st, err := store.Open(cfg.StorePath)
	if err != nil {
		return nil, err
	}
	maxSim := cfg.MaxSim
	if maxSim <= 0 {
		maxSim = runtime.NumCPU()
	}
	sem := make(chan int, maxSim)
	for i := 0; i < maxSim; i++ {
		sem <- i
	}
	log := cfg.Log
	if log == nil {
		log = slog.Default()
	}
	s := &Service{
		store:       st,
		log:         log,
		tracker:     cfg.Tracker,
		chaos:       cfg.Chaos,
		cellTimeout: cfg.CellTimeout,
		sem:         sem,
		workerID:    obs.NewRunID(),
		defaultFP:   config.Default().Fingerprint(),
	}
	cfg.Tracker.BeginPhase("serve")
	return s, nil
}

// Store exposes the underlying store (tests and stats endpoints).
func (s *Service) Store() *store.Store { return s.store }

// Close releases the store's journal file.
func (s *Service) Close() error { return s.store.Close() }

// cellSpec is a parsed, validated request.
type cellSpec struct {
	workload string
	kind     arch.Kind
	profile  *trace.Profile
	ec       *exp.Context
	paramsFP string // ec.Params.Fingerprint()
}

// parse validates a request into a runnable spec. All failures are
// RequestErrors: the request named something that does not exist.
func (s *Service) parse(req CellRequest) (*cellSpec, error) {
	if req.Workload == "" {
		return nil, badRequest("missing workload")
	}
	kind, ok := arch.ParseKind(req.Scheme)
	if !ok {
		return nil, badRequest("unknown scheme %q (want one of %v)", req.Scheme, arch.AllKinds())
	}
	var profile *trace.Profile
	if req.Profile != "" && req.Profile != OutageFree {
		p, ok := trace.ParseProfile(req.Profile)
		if !ok {
			return nil, badRequest("unknown profile %q (want %v or %q)", req.Profile, trace.Profiles(), OutageFree)
		}
		profile = &p
	}
	// A request with a params field, even {}, fingerprints its own merged
	// set: comparing it with Table 1 by == would merge keys that differ
	// (-0.0 == 0, but the two render differently).
	params, fp := config.Default(), s.defaultFP
	if len(req.Params) > 0 {
		p, err := config.FromJSON(req.Params)
		if err != nil {
			return nil, badRequest("bad params: %v", err)
		}
		params, fp = p, p.Fingerprint()
	}
	scale := req.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, badRequest("negative scale %d", scale)
	}
	// A build allocates data in proportion to its scale, and an
	// allocation the runtime cannot satisfy kills the daemon, so a scale
	// past the one every workload fits Table 1's NVM at is refused before
	// anything is built.
	if scale > workloads.MaxScale {
		return nil, badRequest("scale %d above %d", scale, workloads.MaxScale)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	// One exp.Context per request: it carries the cell's identity knobs
	// and the matrix-cell machinery (panic isolation, CellTimeout,
	// chaos); the expensive state, the compile cache, is process-wide
	// and shared behind it.
	ec := &exp.Context{
		Params:      params,
		Scale:       scale,
		Seed:        seed,
		CellTimeout: s.cellTimeout,
		Chaos:       s.chaos,
	}
	// Resolve the workload now so an unknown name is a 400, not a
	// simulated-miss 500.
	if _, err := workloads.ByName(req.Workload); err != nil {
		return nil, badRequest("%v", err)
	}
	return &cellSpec{workload: req.Workload, kind: kind, profile: profile, ec: ec, paramsFP: fp}, nil
}

// Cell serves one cell: fastest tier first, simulate on miss, dedup
// identical in-flight requests.
func (s *Service) Cell(ctx context.Context, req CellRequest) (*CellResponse, error) {
	s.requests.Add(1)
	spec, err := s.parse(req)
	if err != nil {
		s.badRequests.Add(1)
		return nil, err
	}
	id := spec.ec.CellID(spec.workload, spec.kind, spec.profile, spec.ec.Seed, spec.paramsFP)
	start := time.Now()
	rec, tier, err := s.store.GetOrCompute(ctx, id, func(ctx context.Context) (*journal.Record, error) {
		return s.simulate(ctx, spec, id)
	})
	if err != nil {
		s.failures.Add(1)
		return nil, err
	}
	return &CellResponse{
		Key:       id.Key(),
		Cell:      id,
		Tier:      tier.String(),
		Digest:    rec.Digest(),
		ElapsedNs: time.Since(start).Nanoseconds(),
		Record:    rec,
	}, nil
}

// simulate runs the cell under a simulation slot, with obs tracking.
func (s *Service) simulate(ctx context.Context, spec *cellSpec, id journal.Cell) (*journal.Record, error) {
	var slot int
	select {
	case slot = <-s.sem:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { s.sem <- slot }()

	idx := -1
	if s.tracker != nil {
		idx = s.tracker.AddCells([]obs.CellMeta{{
			Workload: id.Workload, Scheme: id.Scheme, Profile: id.Profile,
		}})
		s.tracker.Start(slot, idx)
	}
	s.log.Debug("simulating cell", "workload", id.Workload, "scheme", id.Scheme,
		"profile", id.Profile, "seed", id.Seed, "slot", slot)
	res, err := spec.ec.RunSingle(ctx, spec.workload, spec.kind, spec.profile)
	if err != nil {
		if s.tracker != nil {
			s.tracker.Fail(slot, idx, err, false)
		}
		return nil, err
	}
	if s.tracker != nil {
		s.tracker.Done(slot, idx)
	}
	return journal.FromResult(res), nil
}

// BatchItem is one result of a Cells batch: exactly one of Response or
// Error is set.
type BatchItem struct {
	Response *CellResponse `json:"response,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// Cells serves a batch concurrently. Per-item failures are reported in
// place; the batch itself only fails on a dead context. The simulation
// semaphore bounds the real work however large the batch is.
func (s *Service) Cells(ctx context.Context, reqs []CellRequest) []BatchItem {
	items := make([]BatchItem, len(reqs))
	workers := runtime.NumCPU() * 2 // waiters are cheap; sims are gated by sem
	if workers > len(reqs) {
		workers = len(reqs)
	}
	jobCh := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			for i := range jobCh {
				resp, err := s.Cell(ctx, reqs[i])
				if err != nil {
					items[i] = BatchItem{Error: err.Error()}
				} else {
					items[i] = BatchItem{Response: resp}
				}
				done <- struct{}{}
			}
		}()
	}
	go func() {
		for i := range reqs {
			jobCh <- i
		}
		close(jobCh)
	}()
	for range reqs {
		<-done
	}
	return items
}

// Stats is the /v1/stats document.
type Stats struct {
	Store store.Stats `json:"store"`
	// Counters are the service's own counters (service.requests,
	// service.bad_requests, service.failures, service.leases), zeros
	// included; the store's are typed under Store.
	Counters map[string]uint64 `json:"counters"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	return Stats{
		Store:    s.store.Stats(),
		Counters: s.counters(),
	}
}

// counters reads the service's counters under their metric names.
func (s *Service) counters() map[string]uint64 {
	return map[string]uint64{
		"service.requests":     s.requests.Load(),
		"service.bad_requests": s.badRequests.Load(),
		"service.failures":     s.failures.Load(),
		"service.leases":       s.leases.Load(),
	}
}

// MetricsSnapshot renders the service's, store's and journal's own stats
// for one scrape — the Extra hook for the obs /metrics endpoint. Every
// counter is present from the first scrape, zeros included.
func (s *Service) MetricsSnapshot() *telemetry.Snapshot {
	snap := s.store.Stats().Metrics()
	maps.Copy(snap.Counters, s.counters())
	return snap
}
