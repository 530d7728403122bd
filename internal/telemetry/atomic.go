package telemetry

import (
	"sync"
	"sync/atomic"
)

// AtomicCounter is a monotonically increasing count safe for concurrent
// use: the campaign tracker and the store increment it from request and
// worker goroutines while an HTTP handler snapshots it, with no
// coordination beyond the atomics.
type AtomicCounter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *AtomicCounter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *AtomicCounter) Value() uint64 { return c.v.Load() }

// LiveRegistry is a set of named counters safe for concurrent use: any
// goroutine may create, increment, and snapshot counters at any time. It
// is the serving-path complement of Snapshot — a live /metrics endpoint
// renders a LiveRegistry snapshot mid-campaign, while simulation results
// fill single-owner Snapshots that merge after each run.
type LiveRegistry struct {
	mu       sync.RWMutex
	counters map[string]*AtomicCounter
}

// NewLiveRegistry returns an empty live registry.
func NewLiveRegistry() *LiveRegistry {
	return &LiveRegistry{counters: map[string]*AtomicCounter{}}
}

// Counter returns the named counter, creating it on first use.
func (r *LiveRegistry) Counter(name string) *AtomicCounter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &AtomicCounter{}
		r.counters[name] = c
	}
	return c
}

// Snapshot captures the registry's current values. Safe to call while
// writers are mutating: each counter is read atomically (the snapshot is
// per-metric consistent, not a cross-metric transaction — the usual
// Prometheus exposition contract).
func (r *LiveRegistry) Snapshot() *Snapshot {
	s := NewSnapshot()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	return s
}
