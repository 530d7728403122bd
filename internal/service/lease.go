package service

import (
	"context"
	"errors"
	"time"

	"repro/internal/obs"
)

// The worker half of the distributed-campaign lease protocol
// (internal/dist is the coordinator half). A lease names one cell plus
// the coordinator's bookkeeping — lease ID, attempt number, TTL — and
// the worker simply serves the cell through the same store path
// as /v1/cell, bounded by the TTL. Leases are idempotent by
// construction: the cell key is a content hash, so a re-issued or
// duplicated lease lands on the memoized record (or collapses onto the
// in-flight simulation) instead of recomputing, and every completion
// for a key carries the same digest. The coordinator therefore never
// needs worker-side lease state; TTL enforcement here only stops a
// stolen straggler from burning CPU on a result nobody will read.

// LeaseRequest is one coordinator work order.
type LeaseRequest struct {
	// LeaseID names this dispatch attempt for the coordinator's books;
	// the response echoes it.
	LeaseID string `json:"lease_id"`
	// Attempt is 1-based: how many leases (including this one) the
	// coordinator has issued for the cell. Chaos injectors salt their
	// decisions with per-cell attempt counters, so retries converge.
	Attempt int `json:"attempt"`
	// TTLMs bounds the lease's wall clock; the worker aborts the
	// simulation at the TTL (the coordinator has already given up on
	// this lease by then). 0 = unbounded.
	TTLMs int64       `json:"ttl_ms,omitempty"`
	Cell  CellRequest `json:"cell"`
}

// LeaseResponse is a completed lease.
type LeaseResponse struct {
	LeaseID string `json:"lease_id"`
	Attempt int    `json:"attempt"`
	// Worker identifies the serving daemon (its run ID), so a merged
	// campaign report can say which worker proved which cell.
	Worker string        `json:"worker"`
	Result *CellResponse `json:"result"`
}

// ErrDraining is returned for leases (and rendered as 503) while the
// worker is shutting down: the coordinator re-issues the lease to a
// healthy worker instead of waiting out the drain.
var ErrDraining = errors.New("service: draining — not accepting new leases")

// Lease serves one coordinator lease: the cell runs through the normal
// store path under a TTL-bounded context.
func (s *Service) Lease(ctx context.Context, lr LeaseRequest) (*LeaseResponse, error) {
	if lr.LeaseID == "" {
		return nil, badRequest("missing lease_id")
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	s.leases.Add(1)
	lctx := ctx
	if lr.TTLMs > 0 {
		var cancel context.CancelFunc
		lctx, cancel = context.WithTimeout(ctx, time.Duration(lr.TTLMs)*time.Millisecond)
		defer cancel()
	}
	resp, err := s.Cell(lctx, lr.Cell)
	if err != nil {
		return nil, err
	}
	return &LeaseResponse{LeaseID: lr.LeaseID, Attempt: lr.Attempt, Worker: s.workerID, Result: resp}, nil
}

// StartDrain flips the worker into draining: /healthz answers 503 and
// new leases are refused, while in-flight requests run to completion
// under the server's shutdown grace. sweepd calls this on
// SIGINT/SIGTERM before http.Server.Shutdown.
func (s *Service) StartDrain() {
	if !s.draining.Swap(true) {
		s.log.Info("service draining: refusing new leases, /healthz now 503")
	}
}

// Draining reports whether StartDrain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// Health is the /healthz verdict: draining or ok. A failing cell does
// not change it: the cell answers 500 on every request, and what to do
// about it is the coordinator's call (dist.Coordinator's MaxAttempts and
// quarantine), not the worker's.
func (s *Service) Health() obs.Health {
	if s.draining.Load() {
		return obs.Health{State: obs.HealthDraining, Reason: "shutting down"}
	}
	return obs.Health{State: obs.HealthOK}
}
