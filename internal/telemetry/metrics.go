package telemetry

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/stats"
)

// Snapshot is a set of named metrics from finished work — a run's
// counters, gauges and histograms — mergeable across runs. Producers fill
// the maps directly (sim.Result.Metrics is the main one).
//
// Single-owner rule: a Snapshot is written by exactly one goroutine at a
// time and must not be read while its owner is still writing. Parallel
// runs each build a private Snapshot and merge it into the accumulator
// afterwards, under the accumulator owner's lock; that hand-off (fill,
// then publish) is the only cross-goroutine flow, and
// TestSnapshotSingleOwnerHandoff pins it under the race detector. A count
// shared between live goroutines is not a Snapshot: it stays in its
// owning component (an atomic field, or stats read under that
// component's mutex), and a /metrics scrape renders it into a fresh
// Snapshot that the scrape alone owns.
//
// Gauges merge additively (times and energies — the gauges this simulator
// records — are sums).
type Snapshot struct {
	Counters map[string]uint64
	Gauges   map[string]float64
	Hists    map[string]*stats.Hist
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]*stats.Hist{},
	}
}

// Merge folds o into s: counters and gauges add, histograms merge
// sample-wise. Histograms recorded with different bucket bounds (e.g.
// across store-threshold sweeps) are reconciled by growing the smaller
// histogram first; samples already in its overflow stay in overflow.
func (s *Snapshot) Merge(o *Snapshot) error {
	for name, v := range o.Counters {
		s.Counters[name] += v
	}
	for name, v := range o.Gauges {
		s.Gauges[name] += v
	}
	for name, oh := range o.Hists {
		h := s.Hists[name]
		if h == nil {
			s.Hists[name] = oh.Clone()
			continue
		}
		if len(h.Buckets) != len(oh.Buckets) {
			oh = oh.Clone()
			grow(h, len(oh.Buckets))
			grow(oh, len(h.Buckets))
		}
		if err := h.Merge(oh); err != nil {
			return fmt.Errorf("telemetry: merge %q: %w", name, err)
		}
	}
	return nil
}

func grow(h *stats.Hist, n int) {
	for len(h.Buckets) < n {
		h.Buckets = append(h.Buckets, 0)
	}
}

// WriteText renders the snapshot as sorted, aligned plain text.
func (s *Snapshot) WriteText(w io.Writer) error {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "counter %-28s %d\n", n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "gauge   %-28s %g\n", n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Hists[n]
		if _, err := fmt.Fprintf(w, "hist    %-28s n=%d mean=%.2f p50=%d p99=%d overflow=%d\n",
			n, h.N, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Overflow); err != nil {
			return err
		}
	}
	return nil
}
