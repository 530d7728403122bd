// Package store is the memoized result store — the heart of
// simulation-as-a-service, and the path every experiment matrix cell
// takes. Its one index is the cell journal's (internal/journal), and a
// hit's tier names the record's origin:
//
//   - disk: read from the journal file at Open, so proven before this
//     process started;
//   - memory: computed and stored since.
//
// Every computed cell is appended to the journal (fsynced, when it has
// a file) before the caller sees it, so a restarted store re-serves the
// whole corpus from the first Lookup. A memory-only store is a journal
// with no file: the same index, with every restart cold.
//
// Misses go through singleflight dedup: N concurrent requests for the
// same cell key cost exactly one simulation, with the followers blocking
// on the leader's result. The cell key is the journal's content hash over
// the full cell identity (workload, scale, scheme, profile, seed, params
// fingerprint, engine version), so a cached record can never be served
// across a configuration or model change.
//
// Records are treated as immutable once stored.
package store

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/journal"
	"repro/internal/telemetry"
)

// Tier names where a record came from.
type Tier int

const (
	// TierNone: the record was computed by this call (a miss), or the
	// lookup failed.
	TierNone Tier = iota
	// TierMemory: stored since the store was built.
	TierMemory
	// TierDisk: loaded from the journal file when it was opened.
	TierDisk
)

func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	}
	return "simulated"
}

// Stats is a snapshot of the store's counters, which the store keeps
// under its mutex and nowhere else.
type Stats struct {
	MemHits        uint64 `json:"mem_hits"`
	DiskHits       uint64 `json:"disk_hits"`
	Misses         uint64 `json:"misses"` // computes actually started
	DedupCollapses uint64 `json:"dedup_collapses"`
	Errors         uint64 `json:"errors"` // failed computes
	InFlight       int    `json:"in_flight"`
	MemEntries     int    `json:"mem_entries"` // records held, loaded and stored
	// Disk is the journal file's view (zero-valued when the store is
	// memory-only).
	Disk journal.Stats `json:"disk"`
}

// Metrics renders the stats for one /metrics scrape: the five store.*
// counters, the in-flight and memory-entry gauges, and the journal
// file's load counts. Every key is present, zeros included.
func (st Stats) Metrics() *telemetry.Snapshot {
	s := st.Disk.Metrics()
	c := s.Counters
	c["store.mem_hits"] = st.MemHits
	c["store.disk_hits"] = st.DiskHits
	c["store.misses"] = st.Misses
	c["store.dedup_collapses"] = st.DedupCollapses
	c["store.errors"] = st.Errors
	s.Gauges["store.in_flight"] = float64(st.InFlight)
	s.Gauges["store.mem_entries"] = float64(st.MemEntries)
	return s
}

// flight is one in-progress compute; followers block on done.
type flight struct {
	done chan struct{}
	rec  *journal.Record
	err  error
	// abandoned: err is the leader's own context error, no verdict on
	// the cell.
	abandoned bool
}

// Store is a deduplicating result store over one journal index. Safe
// for concurrent use.
type Store struct {
	j *journal.Journal // the one index; file-less when memory-only

	mu      sync.Mutex // guards flights and stats
	flights map[string]*flight
	stats   Stats
}

// New builds a store over an already-open journal, or over a journal
// with no file when j is nil (memory-only). The store owns the journal
// from here: Close closes it.
func New(j *journal.Journal) *Store {
	if j == nil {
		j = journal.New()
	}
	return &Store{j: j, flights: make(map[string]*flight)}
}

// Open opens (or creates) the journal at path and builds a store over
// it. An empty path yields a memory-only store — every restart is cold.
func Open(path string) (*Store, error) {
	if path == "" {
		return New(nil), nil
	}
	j, err := journal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return New(j), nil
}

// lookupLocked reads key from the index and counts a hit by its
// origin. Lock order is always store.mu -> the journal's index lock.
func (s *Store) lookupLocked(key string) (*journal.Record, Tier, bool) {
	rec, loaded, ok := s.j.Get(key)
	switch {
	case !ok:
		return nil, TierNone, false
	case loaded:
		s.stats.DiskHits++
		return rec, TierDisk, true
	}
	s.stats.MemHits++
	return rec, TierMemory, true
}

// Lookup returns the cell's record and its tier, if the store holds it.
func (s *Store) Lookup(c journal.Cell) (*journal.Record, Tier, bool) {
	key := c.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(key)
}

// Peek returns the cell's record if the store holds it, counting
// nothing: a caller that reads one cell's record to compute another's
// is not serving a hit.
func (s *Store) Peek(c journal.Cell) (*journal.Record, bool) { return s.j.Lookup(c) }

// GetOrCompute serves the cell from the index, or — on a miss — runs
// compute exactly once however many callers ask concurrently: one
// leader simulates while followers block on its result (each counted
// as a dedup collapse). A successful compute is durable (journal append
// + fsync, with a file) and indexed before anyone sees it; a failed one
// is reported to every waiter and cached nowhere, so the next request
// retries.
//
// A follower whose ctx ends stops waiting and returns ctx.Err(); the
// leader's compute keeps running (it serves the other waiters) under
// the leader's own ctx. When the leader's ctx ends instead — its client
// disconnected or its lease TTL fired — the flight fails with that
// context error, which is no verdict on the cell: a follower whose ctx
// is still live retries, leading a new flight or joining one.
func (s *Store) GetOrCompute(ctx context.Context, c journal.Cell, compute func(ctx context.Context) (*journal.Record, error)) (*journal.Record, Tier, error) {
	key := c.Key()
	s.mu.Lock()
	// In-flight first: a flight stays registered until its record is
	// durable and indexed, so a request landing in between joins the
	// flight instead of reading a record its leader has not returned.
	for {
		f, ok := s.flights[key]
		if !ok {
			break
		}
		s.stats.DedupCollapses++
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, TierNone, ctx.Err()
		}
		if !f.abandoned {
			return f.rec, TierNone, f.err
		}
		if err := ctx.Err(); err != nil {
			return nil, TierNone, err
		}
		s.mu.Lock()
	}
	if rec, tier, ok := s.lookupLocked(key); ok {
		s.mu.Unlock()
		return rec, tier, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats.Misses++
	s.stats.InFlight++
	s.mu.Unlock()

	rec, err := compute(ctx)
	if err == nil {
		if perr := s.j.Append(c, rec); perr != nil {
			// The cell simulated but its proof is not durable — the
			// store's contract is "served results are reproducible from
			// the journal", so this surfaces as a failure, not a success
			// with silent data loss.
			rec, err = nil, fmt.Errorf("store: cell computed but not durable: %w", perr)
		}
	}
	s.mu.Lock()
	if err != nil {
		s.stats.Errors++
	}
	delete(s.flights, key)
	s.stats.InFlight--
	s.mu.Unlock()
	f.rec, f.err = rec, err
	f.abandoned = ctx.Err() != nil && errors.Is(err, ctx.Err())
	close(f.done)
	return rec, TierNone, err
}

// Stats snapshots the store's counters, the records held and the
// journal file's counts.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	st.MemEntries = s.j.Len()
	st.Disk = s.j.Stats()
	return st
}

// Close releases the journal's file; on a memory-only store it does
// nothing. Lookups keep working; further computes on a disk-backed
// store fail their durable append.
func (s *Store) Close() error { return s.j.Close() }
