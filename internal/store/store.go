// Package store promotes the cell journal into a tiered, memoized result
// store — the heart of simulation-as-a-service. A lookup walks two tiers:
//
//   - memory: a bounded LRU over *journal.Record, modeled on the shared
//     trace-tape cache — hot cells cost a map probe, eviction simply
//     demotes a cell back to "disk-only".
//   - disk: the durable JSONL journal (internal/journal), which also
//     gives the store its crash story: every computed cell is fsynced
//     before the caller sees it, and a restarted store re-serves the
//     whole corpus from the first Lookup.
//
// Misses go through singleflight dedup: N concurrent requests for the
// same cell key cost exactly one simulation, with the followers blocking
// on the leader's result. The cell key is the journal's content hash over
// the full cell identity (workload, scale, scheme, profile, seed, params
// fingerprint, engine version), so a cached record can never be served
// across a configuration or model change.
//
// Records are treated as immutable once stored; tiers share pointers.
package store

import (
	"container/list"
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
	TierMemory
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
	MemEntries     int    `json:"mem_entries"`
	MemCap         int    `json:"mem_cap"`
	// Disk is the underlying journal's view (zero-valued when the store
	// is memory-only).
	Disk journal.Stats `json:"disk"`
}

// Metrics renders the stats for one /metrics scrape: the five store.*
// counters, the in-flight and memory-entry gauges, and the disk tier's
// journal counts. Every key is present, zeros included.
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

// DefaultMemCap is the memory tier's entry bound when the caller passes
// a non-positive cap. Records are a few hundred bytes of counters each,
// so the default keeps the hot set of a large campaign resident for
// single-digit megabytes.
const DefaultMemCap = 4096

// flight is one in-progress compute; followers block on done.
type flight struct {
	done chan struct{}
	rec  *journal.Record
	err  error
	// abandoned: err is the leader's own context error, no verdict on
	// the cell.
	abandoned bool
}

// entry is one memory-tier record: the value of an LRU list element.
type entry struct {
	key string
	rec *journal.Record
}

// Store is a tiered, deduplicating result store. Safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	mem     map[string]*list.Element // each holds an *entry
	lru     list.List                // most recently used first
	memCap  int
	disk    *journal.Journal // nil = memory-only
	flights map[string]*flight
	stats   Stats
}

// New builds a store over an already-open journal (nil for memory-only).
// memCap bounds the memory tier; non-positive selects DefaultMemCap.
// The store owns the journal from here: Close closes it.
func New(disk *journal.Journal, memCap int) *Store {
	if memCap <= 0 {
		memCap = DefaultMemCap
	}
	return &Store{
		mem:     make(map[string]*list.Element),
		memCap:  memCap,
		disk:    disk,
		flights: make(map[string]*flight),
	}
}

// Open opens (or creates) the journal at path and builds a store over
// it. An empty path yields a memory-only store — every restart is cold.
func Open(path string, memCap int) (*Store, error) {
	var disk *journal.Journal
	if path != "" {
		j, err := journal.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		disk = j
	}
	return New(disk, memCap), nil
}

// insertLocked puts a record into the memory tier as its most recently
// used entry, evicting the least recently used beyond the cap. Eviction
// only demotes: the record stays on disk.
func (s *Store) insertLocked(key string, rec *journal.Record) {
	if e, ok := s.mem[key]; ok {
		e.Value.(*entry).rec = rec
		s.lru.MoveToFront(e)
		return
	}
	s.mem[key] = s.lru.PushFront(&entry{key, rec})
	if s.lru.Len() > s.memCap {
		delete(s.mem, s.lru.Remove(s.lru.Back()).(*entry).key)
	}
}

// lookupLocked walks the tiers for key. On a disk hit the record is
// promoted into the memory tier.
func (s *Store) lookupLocked(c journal.Cell, key string) (*journal.Record, Tier, bool) {
	if e, ok := s.mem[key]; ok {
		s.stats.MemHits++
		s.lru.MoveToFront(e)
		return e.Value.(*entry).rec, TierMemory, true
	}
	if s.disk != nil {
		// Lock order is always store.mu -> journal.mu, never the reverse.
		if rec, ok := s.disk.Lookup(c); ok {
			s.stats.DiskHits++
			s.insertLocked(key, rec)
			return rec, TierDisk, true
		}
	}
	return nil, TierNone, false
}

// Lookup returns the cell's record from the fastest tier holding it.
func (s *Store) Lookup(c journal.Cell) (*journal.Record, Tier, bool) {
	key := c.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(c, key)
}

// Put stores a computed record in both tiers: the disk append (durable,
// fsynced) happens first — outside the store lock, the journal has its
// own — so the memory tier never holds a record the disk tier could
// lose, and an fsync never stalls concurrent memory-tier hits. With no
// disk tier the insert is memory-only.
func (s *Store) Put(c journal.Cell, rec *journal.Record) error {
	key := c.Key()
	if s.disk != nil {
		if err := s.disk.Append(c, rec); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(key, rec)
	return nil
}

// GetOrCompute serves the cell from the fastest tier that has it, or —
// on a miss — runs compute exactly once however many callers ask
// concurrently: one leader simulates while followers block on its
// result (each counted as a dedup collapse). A successful compute is
// durable (journal append + fsync) before anyone sees it; a failed one
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
	// In-flight first: the leader's Put makes the record durable on disk
	// before it reaches memory, and the flight stays registered until
	// both tiers hold it, so a request landing in between joins the
	// flight instead of reading the half-published record from disk.
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
	if rec, tier, ok := s.lookupLocked(c, key); ok {
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
		if perr := s.Put(c, rec); perr != nil {
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

// Stats snapshots the store's counters, including the disk tier's.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = len(s.mem)
	st.MemCap = s.memCap
	if s.disk != nil {
		st.Disk = s.disk.Stats()
	}
	return st
}

// Close releases the disk tier. In-memory lookups keep working; further
// computes on a disk-backed store will fail their durable append.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disk == nil {
		return nil
	}
	return s.disk.Close()
}
