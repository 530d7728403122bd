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
	"repro/internal/trace"
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
	// The context's snapshot counts the reuse too (what -metrics prints).
	if got := c2.MetricsSnapshot().Counters["store.disk_hits"]; got != 4 {
		t.Fatalf("store.disk_hits = %d", got)
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

// TestRunMatrixTrackerServedCells: a cell the context's store serves is
// never running and adds no latency sample. It ends done when an earlier
// matrix of the run simulated it (a memory hit), and skipped when the
// journal proved it before the run (a disk hit).
func TestRunMatrixTrackerServedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Fsync = false
	c1, kinds := trackedCtx()
	c1.Journal = j1
	for range 2 {
		if _, err := c1.runMatrix(kinds, nil, c1.Params, 1); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	p := c1.Tracker.Progress()
	if p.Total != 8 || p.Done != 8 || p.Skipped != 0 {
		t.Fatalf("memory-hit counts: %+v", p)
	}
	for i, cp := range p.Cells {
		if simulated := i < 4; simulated != (cp.DurationMs > 0) {
			t.Errorf("cell %d (%s/%s): duration %g ms, simulated %v", i, cp.Workload, cp.Scheme, cp.DurationMs, simulated)
		}
	}
	if st := c1.store().Stats(); st.Misses != 4 || st.MemHits != 4 {
		t.Fatalf("store stats %+v, want 4 misses and 4 memory hits", st)
	}

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	c2, kinds := trackedCtx()
	c2.Journal = j2
	if _, err := c2.runMatrix(kinds, nil, c2.Params, 1); err != nil {
		t.Fatal(err)
	}
	if p := c2.Tracker.Progress(); p.Skipped != 4 || p.Done != 0 || p.P50Ms != 0 {
		t.Fatalf("disk-hit counts: %+v", p)
	}
}

// TestRunMatrixTrackerCopiedCells: a cell copied from one of its
// sources, an equivalent or an outage-free twin, ends done without ever
// running, so it adds no latency sample; and a source the journal proved
// before the run serves as one simulated in it would.
func TestRunMatrixTrackerCopiedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Fsync = false
	c1, kinds := trackedCtx()
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
	// Table 1 outage-free comes from the journal. At 1 mF, outage-free
	// reads the same params (every cell is served from its equivalent),
	// and under RF-Office no cell reaches a trigger (every cell is served
	// from its twin).
	big := c2.Params
	big.CapacitorF = 1e-3
	office := trace.RFOffice
	for _, set := range []matrixSet{{nil, c2.Params}, {nil, big}, {&office, big}} {
		if _, err := c2.runMatrix(kinds, set.profile, set.p, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := c2.MetricsSnapshot().Counters
	if got["sim.runs"] != 0 || got["store.disk_hits"] != 4 || got["exp.equivalent_hits"] != 4 || got["exp.twin_hits"] != 4 {
		t.Errorf("sim.runs %d, store.disk_hits %d, exp.equivalent_hits %d, exp.twin_hits %d; want 0, 4, 4 and 4",
			got["sim.runs"], got["store.disk_hits"], got["exp.equivalent_hits"], got["exp.twin_hits"])
	}
	p := c2.Tracker.Progress()
	if p.Total != 12 || p.Skipped != 4 || p.Done != 8 || p.P50Ms != 0 {
		t.Fatalf("%d cells: %d skipped, %d done, p50 %g ms; want 12, 4, 8 and 0", p.Total, p.Skipped, p.Done, p.P50Ms)
	}
	for i, cp := range p.Cells {
		if cp.DurationMs != 0 {
			t.Errorf("cell %d (%s/%s, %s): copied, yet ran for %g ms", i, cp.Workload, cp.Scheme, cp.Profile, cp.DurationMs)
		}
	}
}
