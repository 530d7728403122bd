package obs

import (
	"bytes"
	"errors"
	"log/slog"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testTracker(clk *fakeClock) *CampaignTracker {
	t := NewCampaignTracker(slog.New(slog.NewTextHandler(new(bytes.Buffer), nil)))
	if clk != nil {
		t.now = clk.now
		t.birth = clk.now()
	}
	return t
}

func TestTrackerStateMachine(t *testing.T) {
	clk := newFakeClock()
	tr := testTracker(clk)
	tr.BeginPhase("fig5")
	base := tr.AddCells([]CellMeta{
		{Workload: "sha", Scheme: "NVP", Profile: "outage-free"},
		{Workload: "sha", Scheme: "Sweep-EmptyBit", Profile: "outage-free"},
		{Workload: "fft", Scheme: "NVP", Profile: "outage-free"},
		{Workload: "fft", Scheme: "Sweep-EmptyBit", Profile: "outage-free"},
	})
	if base != 0 {
		t.Fatalf("base = %d, want 0", base)
	}

	tr.Skip(base + 3) // journal hit
	tr.Start(0, base+0)
	clk.advance(10 * time.Millisecond)
	tr.Done(0, base+0)
	tr.Start(0, base+1)
	clk.advance(5 * time.Millisecond)
	tr.Fail(0, base+1, errors.New("worker panic: boom"), true)
	tr.Start(1, base+2) // still running

	p := tr.Progress()
	if p.Phase != "fig5" {
		t.Fatalf("phase = %q", p.Phase)
	}
	if p.Total != 4 || p.Done != 1 || p.Failed != 1 || p.Skipped != 1 || p.Running != 1 || p.Pending != 0 {
		t.Fatalf("counts: %+v", p)
	}
	if p.Panics != 1 {
		t.Fatalf("panics = %d, want 1", p.Panics)
	}
	var states []string
	for _, c := range p.Cells {
		states = append(states, c.State.String())
	}
	if got, want := strings.Join(states, ","), "done,failed,running,skipped"; got != want {
		t.Fatalf("cell states = %s, want %s", got, want)
	}
	if p.Cells[1].Error == "" || !strings.Contains(p.Cells[1].Error, "boom") {
		t.Fatalf("failed cell error = %q", p.Cells[1].Error)
	}
	if p.Cells[0].DurationMs != 10 {
		t.Fatalf("done cell duration = %g ms, want 10", p.Cells[0].DurationMs)
	}
	// Worker 1 is mid-cell; worker 0 went idle after its failure.
	if len(p.Workers) != 2 || !p.Workers[0].Idle || p.Workers[1].Idle {
		t.Fatalf("workers: %+v", p.Workers)
	}
	if p.Workers[1].Workload != "fft" {
		t.Fatalf("worker 1 on %q, want fft", p.Workers[1].Workload)
	}

	m := tr.Metrics()
	if m.Counters["campaign_cells_done"] != 1 || m.Counters["campaign_cells_failed"] != 1 ||
		m.Counters["campaign_cells_skipped"] != 1 || m.Counters["campaign_worker_panics"] != 1 {
		t.Fatalf("metrics counters: %v", m.Counters)
	}
	if m.Gauges["campaign_cells_running"] != 1 || m.Gauges["campaign_cells_total"] != 4 {
		t.Fatalf("metrics gauges: %v", m.Gauges)
	}
}

// TestTrackerETAMonotonic drives a constant-latency campaign on a fake
// clock and checks the ETA estimate never increases as cells complete.
func TestTrackerETAMonotonic(t *testing.T) {
	clk := newFakeClock()
	tr := testTracker(clk)
	const n = 32
	metas := make([]CellMeta, n)
	for i := range metas {
		metas[i] = CellMeta{Workload: "w", Scheme: "s", Profile: "p"}
	}
	tr.AddCells(metas)

	last := -1.0
	for i := 0; i < n; i++ {
		tr.Start(0, i)
		clk.advance(100 * time.Millisecond)
		tr.Done(0, i)
		p := tr.Progress()
		if !p.EtaKnown {
			t.Fatalf("cell %d: ETA unknown after a completion", i)
		}
		if last >= 0 && p.EtaSec > last+1e-9 {
			t.Fatalf("cell %d: ETA rose %.3fs -> %.3fs", i, last, p.EtaSec)
		}
		last = p.EtaSec
	}
	if last != 0 {
		t.Fatalf("final ETA = %g, want 0", last)
	}
	p := tr.Progress()
	if want := float64(n) / (float64(n) * 0.1); p.CellsPerSec != want {
		t.Fatalf("cells/sec = %g, want %g", p.CellsPerSec, want)
	}
	if p.P50Ms != 100 || p.P95Ms != 100 {
		t.Fatalf("latency quantiles p50=%g p95=%g, want 100", p.P50Ms, p.P95Ms)
	}
}

// TestTrackerDoneWithoutStartAddsNoSample: a cell that ends done without
// ever running (served from an earlier matrix's memory) counts as done
// but adds no latency sample, so reused cells cannot pull the quantiles,
// and with them the watchdog's threshold, toward zero.
func TestTrackerDoneWithoutStartAddsNoSample(t *testing.T) {
	clk := newFakeClock()
	tr := testTracker(clk)
	tr.AddCells([]CellMeta{{Workload: "sha"}, {Workload: "fft"}, {Workload: "fft"}})
	tr.Start(0, 0)
	clk.advance(40 * time.Millisecond)
	tr.Done(0, 0)
	tr.Done(0, 1)
	tr.Done(1, 2)
	p := tr.Progress()
	if p.Done != 3 || p.Running != 0 {
		t.Fatalf("counts: %+v", p)
	}
	if tr.latN != 1 || p.P50Ms != 40 || p.P95Ms != 40 {
		t.Fatalf("%d latency samples, p50=%g p95=%g; want 1 sample of 40 ms", tr.latN, p.P50Ms, p.P95Ms)
	}
	if p.Cells[1].DurationMs != 0 || p.Cells[2].DurationMs != 0 {
		t.Fatalf("unstarted cells carry durations: %+v", p.Cells[1:])
	}
}

// TestSlowLimitArmsAfterMinSamples pins the one straggler rule the
// watchdog and dist's hedger share: disarmed until minSamples cells
// have completed, then k× the rolling p95 completed-cell latency.
func TestSlowLimitArmsAfterMinSamples(t *testing.T) {
	clk := newFakeClock()
	tr := testTracker(clk)
	tr.AddCells(make([]CellMeta, minSamples))
	for i := 0; i < minSamples; i++ {
		if limit, armed := tr.SlowLimit(4); armed || limit != 0 {
			t.Fatalf("after %d samples: limit %v, armed %v; want 0, false", i, limit, armed)
		}
		tr.Start(0, i)
		clk.advance(time.Duration(i+1) * 10 * time.Millisecond)
		tr.Done(0, i)
	}
	// Samples of 10, 20, …, 80 ms put the p95 at 70 ms.
	if limit, armed := tr.SlowLimit(4); !armed || limit != 280*time.Millisecond {
		t.Fatalf("after %d samples: limit %v, armed %v; want 280ms, true", minSamples, limit, armed)
	}
	var nilTr *CampaignTracker
	if limit, armed := nilTr.SlowLimit(4); armed || limit != 0 {
		t.Fatalf("nil tracker: limit %v, armed %v", limit, armed)
	}
}

// TestTrackerNilSafe calls every hook on a nil tracker and checks the
// read side degrades to empty documents.
func TestTrackerNilSafe(t *testing.T) {
	var tr *CampaignTracker
	tr.BeginPhase("x")
	_ = tr.AddCells(nil)
	tr.Skip(0)
	tr.Start(0, 0)
	tr.Done(0, 0)
	tr.Fail(0, 0, errors.New("x"), true)
	tr.Heartbeat(0)
	if p := tr.Progress(); p.Total != 0 {
		t.Fatalf("nil Progress: %+v", p)
	}
	if m := tr.Metrics(); len(m.Counters) != 0 {
		t.Fatalf("nil Metrics: %+v", m)
	}
	if stop := tr.StartWatchdog(); stop == nil {
		t.Fatal("nil watchdog stop is nil")
	} else {
		stop()
	}
}

// TestMetricsSkipsCellList: a /metrics scrape reads Progress's header
// without building its per-cell list, so at 10,000 registered cells one
// call allocates a few KiB rather than one CellProgress per cell, and
// every value equals Progress's.
func TestMetricsSkipsCellList(t *testing.T) {
	clk := newFakeClock()
	tr := testTracker(clk)
	const n = 10000
	tr.AddCells(make([]CellMeta, n))
	for i := 0; i < n/2; i++ {
		tr.Start(i%4, i)
		clk.advance(time.Millisecond)
		tr.Done(i%4, i)
	}
	tr.Fail(1, n/2, errors.New("boom"), true)
	tr.Start(0, n/2+1)
	tr.Skip(n - 1)

	const calls = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		tr.Metrics()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64<<10 {
		t.Errorf("Metrics allocates %d B per call at %d cells, want < 64 KiB", per, n)
	}

	p, m := tr.Progress(), tr.Metrics()
	counters := map[string]uint64{
		"campaign_cells_done":    uint64(p.Done),
		"campaign_cells_failed":  uint64(p.Failed),
		"campaign_cells_skipped": uint64(p.Skipped),
		"campaign_worker_panics": p.Panics,
	}
	gauges := map[string]float64{
		"campaign_cells_total":              float64(p.Total),
		"campaign_cells_pending":            float64(p.Pending),
		"campaign_cells_running":            float64(p.Running),
		"campaign_cells_per_sec":            p.CellsPerSec,
		"campaign_uptime_seconds":           p.ElapsedSec,
		"campaign_cell_latency_p50_seconds": p.P50Ms / 1e3,
		"campaign_cell_latency_p95_seconds": p.P95Ms / 1e3,
		"campaign_eta_seconds":              p.EtaSec,
	}
	if len(m.Counters) != len(counters) || len(m.Gauges) != len(gauges) {
		t.Fatalf("metric sets: counters %v, gauges %v", m.Counters, m.Gauges)
	}
	for k, want := range counters {
		if got := m.Counters[k]; got != want {
			t.Errorf("%s = %d, Progress says %d", k, got, want)
		}
	}
	for k, want := range gauges {
		if got := m.Gauges[k]; got != want {
			t.Errorf("%s = %g, Progress says %g", k, got, want)
		}
	}
}

// TestTrackerHooksNilZeroAlloc pins the disabled-path contract: with no
// tracker attached (the no -listen case) the worker-pool hooks must not
// allocate — same bar as the telemetry tracer's disabled path.
func TestTrackerHooksNilZeroAlloc(t *testing.T) {
	var tr *CampaignTracker
	err := errors.New("static")
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Heartbeat(3)
		tr.Start(3, 17)
		tr.Done(3, 17)
		tr.Fail(3, 17, err, false)
		tr.Skip(17)
	})
	if allocs != 0 {
		t.Fatalf("nil-tracker hooks allocate %v/run, want 0", allocs)
	}
}

// TestWatchdogFlagsSlowCell exercises one watchdog pass directly: a cell
// running watchdogK× beyond the rolling p95 is logged exactly once.
func TestWatchdogFlagsSlowCell(t *testing.T) {
	clk := newFakeClock()
	var buf bytes.Buffer
	tr := NewCampaignTracker(slog.New(slog.NewTextHandler(&buf, nil)))
	tr.now = clk.now
	tr.birth = clk.now()

	metas := make([]CellMeta, minSamples+1)
	for i := range metas {
		metas[i] = CellMeta{Workload: "w", Scheme: "s", Profile: "p"}
	}
	tr.AddCells(metas)
	// minSamples completions at 10ms establish the p95.
	for i := 0; i < minSamples; i++ {
		tr.Start(0, i)
		clk.advance(10 * time.Millisecond)
		tr.Done(0, i)
	}
	// The straggler runs 100× p95.
	tr.Start(1, minSamples)
	clk.advance(time.Second)

	tr.sniff()
	if out := buf.String(); !strings.Contains(out, "slow cell") || !strings.Contains(out, "workload=w") {
		t.Fatalf("watchdog log missing: %q", out)
	}
	buf.Reset()
	tr.sniff()
	if out := buf.String(); out != "" {
		t.Fatalf("watchdog re-warned: %q", out)
	}
}
