package service

import "context"

// The worker half of the distributed-campaign lease protocol
// (internal/dist is the coordinator half). A lease names one cell plus
// the coordinator's bookkeeping — lease ID and attempt number — and the
// worker simply serves the cell through the same store path as
// /v1/cell. Leases are idempotent by construction: the cell key is a
// content hash, so a re-issued or duplicated lease lands on the
// memoized record (or collapses onto the in-flight simulation) instead
// of recomputing, and every completion for a key carries the same
// digest. The coordinator therefore never needs worker-side lease
// state, and the worker keeps none: the coordinator's lease deadline
// bounds the request, and when it fires (or a hedge wins) the client
// closes the connection, the server cancels the request's context, and
// the simulation stops at its next epoch boundary.

// LeaseRequest is one coordinator work order.
type LeaseRequest struct {
	// LeaseID names this dispatch attempt for the coordinator's books;
	// the response echoes it.
	LeaseID string `json:"lease_id"`
	// Attempt is 1-based: how many leases (including this one) the
	// coordinator has issued for the cell. Chaos injectors salt their
	// decisions with per-cell attempt counters, so retries converge.
	Attempt int         `json:"attempt"`
	Cell    CellRequest `json:"cell"`
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

// Lease serves one coordinator lease: the cell runs through the normal
// store path under the request's context.
func (s *Service) Lease(ctx context.Context, lr LeaseRequest) (*LeaseResponse, error) {
	if lr.LeaseID == "" {
		return nil, badRequest("missing lease_id")
	}
	s.leases.Add(1)
	resp, err := s.Cell(ctx, lr.Cell)
	if err != nil {
		return nil, err
	}
	return &LeaseResponse{LeaseID: lr.LeaseID, Attempt: lr.Attempt, Worker: s.workerID, Result: resp}, nil
}
