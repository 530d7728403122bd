package exp

// Live-tracking coverage: the campaign tracker wired through runMatrix
// must see every cell reach a terminal state, journal hits as skips,
// panics as panicked failures — and must not perturb the results.

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// trackedCtx is a small 2×2 matrix (sha, fft × NVP, Sweep-EmptyBit)
// with a tracker attached.
func trackedCtx() (*Context, []arch.Kind) {
	c := DefaultContext()
	c.Quick = true
	c.Only = []string{"sha", "fft"}
	c.Tracker = obs.NewCampaignTracker(nil)
	return c, []arch.Kind{arch.SweepEmptyBit}
}

func TestRunMatrixTracker(t *testing.T) {
	// Reference run without a tracker.
	ref, kinds := trackedCtx()
	ref.Tracker = nil
	refM, err := ref.runMatrix(kinds, nil, ref.Params, 1)
	if err != nil {
		t.Fatal(err)
	}

	c, kinds := trackedCtx()
	c.Tracker.BeginPhase("test")
	m, err := c.runMatrix(kinds, nil, c.Params, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Tracker.Progress()
	if p.Total != 4 || p.Done != 4 || p.Pending != 0 || p.Running != 0 || p.Failed != 0 || p.Skipped != 0 {
		t.Fatalf("tracked counts: %+v", p)
	}
	if p.Phase != "test" || p.Panics != 0 {
		t.Fatalf("phase/panics: %+v", p)
	}
	for _, cp := range p.Cells {
		if cp.DurationMs <= 0 {
			t.Fatalf("done cell without duration: %+v", cp)
		}
	}
	// Tracking must not perturb the simulation.
	for _, name := range m.Names {
		for _, k := range append(kinds, arch.NVP) {
			a, b := refM.Get(name, k), m.Get(name, k)
			if a.TimeNs != b.TimeNs || a.Ledger != b.Ledger || a.Counts != b.Counts {
				t.Errorf("tracked result diverges for %s/%v", name, k)
			}
		}
	}
}

// TestRunMatrixTrackerJournalSkips: cells proven by the journal surface
// as skipped, not done, and the reopened journal's own Stats count
// what it loaded.
func TestRunMatrixTrackerJournalSkips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Fsync = false
	c1, kinds := trackedCtx()
	c1.Tracker = nil
	c1.Journal = j1
	if _, err := c1.runMatrix(kinds, nil, c1.Params, 1); err != nil {
		t.Fatal(err)
	}
	j1.Close()

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	j2.Fsync = false
	c2, kinds := trackedCtx()
	c2.Journal = j2
	c2.Metrics = telemetry.NewSnapshot()
	if _, err := c2.runMatrix(kinds, nil, c2.Params, 1); err != nil {
		t.Fatal(err)
	}
	p := c2.Tracker.Progress()
	if p.Total != 4 || p.Skipped != 4 || p.Done != 0 || p.Failed != 0 {
		t.Fatalf("resume counts: %+v", p)
	}
	if st := j2.Stats(); st.Loaded != 4 {
		t.Fatalf("journal loaded %d cells, want 4", st.Loaded)
	}
	snap := c2.Tracker.Metrics()
	if snap.Counters["campaign_cells_skipped"] != 4 {
		t.Fatalf("campaign_cells_skipped = %d", snap.Counters["campaign_cells_skipped"])
	}
	// The context accumulator counts the reuse too (what -metrics prints).
	if c2.MetricsSnapshot().Counters["journal.cells_reused"] != 4 {
		t.Fatalf("journal.cells_reused = %d", c2.MetricsSnapshot().Counters["journal.cells_reused"])
	}
}

// TestRunMatrixTrackerPanics: injected worker panics must land in the
// tracker as panicked failures.
func TestRunMatrixTrackerPanics(t *testing.T) {
	c, kinds := trackedCtx()
	c.Chaos = chaos.New(chaos.Config{Seed: 7, PanicProb: 1})
	if _, err := c.runMatrix(kinds, nil, c.Params, 1); err == nil {
		t.Fatal("all-panic run reported success")
	}
	p := c.Tracker.Progress()
	if p.Failed != 4 || p.Done != 0 {
		t.Fatalf("panic counts: %+v", p)
	}
	if p.Panics != 4 {
		t.Fatalf("worker_panics = %d, want 4", p.Panics)
	}
	for _, cp := range p.Cells {
		if cp.State.String() != "failed" || cp.Error == "" {
			t.Fatalf("panicked cell record: %+v", cp)
		}
	}
}

// TestRunMatrixTrackerTimeouts: cell timeouts surface as ordinary
// (non-panic) failures.
func TestRunMatrixTrackerTimeouts(t *testing.T) {
	c, kinds := trackedCtx()
	c.CellTimeout = time.Nanosecond
	if _, err := c.runMatrix(kinds, nil, c.Params, 1); err == nil {
		t.Fatal("all-timeout run reported success")
	}
	p := c.Tracker.Progress()
	if p.Failed != 4 {
		t.Fatalf("timeout counts: %+v", p)
	}
	if p.Panics != 0 {
		t.Fatalf("timeouts counted as panics: %d", p.Panics)
	}
}
