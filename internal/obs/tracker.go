// Package obs is the live observability layer for experiment campaigns:
// a CampaignTracker that follows every matrix cell through its state
// machine (pending → running → done/failed; done directly when an earlier
// matrix of the run already simulated it, skipped when the journal
// already proves it), a slow-cell watchdog, and an opt-in HTTP
// introspection server exposing /metrics (Prometheus text), /progress
// (JSON), /healthz, and /runinfo.
//
// The tracker is nil-safe by design: every hook is a method on
// *CampaignTracker that returns immediately on a nil receiver, takes
// only pre-existing values (ints, interned strings, error interfaces),
// and therefore allocates nothing when observability is disabled — the
// same contract as the telemetry tracer's disabled path. A campaign run
// without -listen is byte-identical to one before this package existed.
package obs

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// CellState is one station of a matrix cell's life cycle.
type CellState uint8

const (
	// CellPending: registered, not yet picked up by a worker.
	CellPending CellState = iota
	// CellRunning: a worker is simulating it right now.
	CellRunning
	// CellDone: simulated successfully (and journaled, if a journal is
	// attached), or served from the memory of an earlier matrix.
	CellDone
	// CellFailed: simulation error, worker panic, timeout, or drained by
	// a cancellation.
	CellFailed
	// CellSkipped: never simulated — the journal already held a proof
	// under the identical configuration.
	CellSkipped
)

var cellStateNames = [...]string{"pending", "running", "done", "failed", "skipped"}

func (s CellState) String() string { return cellStateNames[s] }

// MarshalText renders the state for JSON progress snapshots.
func (s CellState) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses the textual state, so /progress documents decode
// back into Progress (dashboards, tests).
func (s *CellState) UnmarshalText(b []byte) error {
	for i, n := range cellStateNames {
		if n == string(b) {
			*s = CellState(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown cell state %q", b)
}

// CellMeta identifies one cell for display.
type CellMeta struct {
	Workload string
	Scheme   string
	Profile  string
}

// latWindow is the rolling completed-cell latency window the p50/p95 and
// the watchdog threshold derive from.
const latWindow = 512

// maxErrLen bounds the per-cell error string kept for /progress.
const maxErrLen = 256

type cellRec struct {
	meta    CellMeta
	phase   string
	state   CellState
	worker  int
	started time.Time
	dur     time.Duration
	errMsg  string
	warned  bool // slow-cell watchdog already logged it
}

type workerRec struct {
	cell      int // tracker cell index, -1 when idle
	started   time.Time
	heartbeat time.Time
}

// CampaignTracker follows a campaign's cells across every matrix the
// experiment drivers run. All methods are safe for concurrent use and
// are no-ops (allocating nothing) on a nil receiver.
type CampaignTracker struct {
	mu    sync.Mutex
	now   func() time.Time // injectable for tests
	birth time.Time
	phase string

	cells   []cellRec
	counts  [len(cellStateNames)]int
	panics  uint64
	workers map[int]*workerRec

	// lat is a ring of the most recent completed-cell latencies.
	lat     [latWindow]time.Duration
	latN    int // total completions ever
	latHead int

	log *slog.Logger
}

// NewCampaignTracker returns a tracker logging watchdog findings to log
// (nil = slog.Default()).
func NewCampaignTracker(log *slog.Logger) *CampaignTracker {
	if log == nil {
		log = slog.Default()
	}
	t := &CampaignTracker{
		now:     time.Now,
		workers: map[int]*workerRec{},
		log:     log,
	}
	t.birth = t.now()
	return t
}

// BeginPhase stamps subsequently-registered cells with an experiment
// name, so /progress can say which figure a campaign is inside.
func (t *CampaignTracker) BeginPhase(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = name
	t.mu.Unlock()
}

// AddCells registers a matrix worth of cells as pending and returns the
// base index; cell i of the batch is tracker cell base+i. Callers must
// skip the call entirely when the tracker is nil — building the metas
// slice is the one hook that allocates.
func (t *CampaignTracker) AddCells(metas []CellMeta) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	base := len(t.cells)
	for _, m := range metas {
		t.cells = append(t.cells, cellRec{meta: m, phase: t.phase, state: CellPending, worker: -1})
		t.counts[CellPending]++
	}
	return base
}

// Skip marks a cell as journal-skipped: proven under the identical
// configuration, never simulated.
func (t *CampaignTracker) Skip(idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.transition(idx, CellSkipped)
}

// Start marks a cell running on a worker and stamps the worker's
// heartbeat.
func (t *CampaignTracker) Start(worker, idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	t.transition(idx, CellRunning)
	t.cells[idx].worker = worker
	t.cells[idx].started = now
	w := t.worker(worker)
	w.cell = idx
	w.started = now
	w.heartbeat = now
}

// Done marks a cell complete and, if it was started, folds its latency
// into the rolling window.
func (t *CampaignTracker) Done(worker, idx int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finish(worker, idx, CellDone, nil, false)
}

// Fail marks a cell failed (simulation error, journal-append error,
// cancellation drain, or — with panicked — a recovered worker panic).
// The error may be nil.
func (t *CampaignTracker) Fail(worker, idx int, err error, panicked bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finish(worker, idx, CellFailed, err, panicked)
}

// Heartbeat stamps a worker as alive; the worker pool calls it once per
// dequeued job, so a stale heartbeat means a worker stuck inside one
// cell.
func (t *CampaignTracker) Heartbeat(worker int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worker(worker).heartbeat = t.now()
}

// transition moves cell idx to state, keeping the per-state counts.
func (t *CampaignTracker) transition(idx int, to CellState) {
	if idx < 0 || idx >= len(t.cells) {
		return
	}
	c := &t.cells[idx]
	t.counts[c.state]--
	c.state = to
	t.counts[to]++
}

func (t *CampaignTracker) finish(worker, idx int, to CellState, err error, panicked bool) {
	now := t.now()
	t.transition(idx, to)
	if idx >= 0 && idx < len(t.cells) {
		c := &t.cells[idx]
		if !c.started.IsZero() {
			c.dur = now.Sub(c.started)
		}
		if err != nil {
			msg := err.Error()
			if len(msg) > maxErrLen {
				msg = msg[:maxErrLen] + "…"
			}
			c.errMsg = msg
		}
		if to == CellDone && !c.started.IsZero() { // a served cell adds no sample
			t.lat[t.latHead] = c.dur
			t.latHead = (t.latHead + 1) % latWindow
			t.latN++
		}
	}
	if panicked {
		t.panics++
	}
	w := t.worker(worker)
	w.cell = -1
	w.heartbeat = now
}

// worker returns worker id's record, creating it idle on first use.
// Callers hold t.mu.
func (t *CampaignTracker) worker(id int) *workerRec {
	w := t.workers[id]
	if w == nil {
		w = &workerRec{cell: -1}
		t.workers[id] = w
	}
	return w
}

// latencies returns a sorted copy of the rolling window. Callers hold
// t.mu.
func (t *CampaignTracker) latencies() []time.Duration {
	n := t.latN
	if n > latWindow {
		n = latWindow
	}
	out := make([]time.Duration, n)
	copy(out, t.lat[:n])
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile reads q from a sorted latency window (0 when empty).
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// WorkerProgress is one worker's live status in a /progress snapshot.
type WorkerProgress struct {
	ID        int       `json:"id"`
	Idle      bool      `json:"idle"`
	Workload  string    `json:"workload,omitempty"`
	Scheme    string    `json:"scheme,omitempty"`
	Profile   string    `json:"profile,omitempty"`
	StartedAt time.Time `json:"started_at,omitempty"`
	RunningMs float64   `json:"running_ms,omitempty"`
	Heartbeat time.Time `json:"heartbeat"`
}

// CellProgress is one cell's status in a /progress snapshot.
type CellProgress struct {
	Phase      string    `json:"phase,omitempty"`
	Workload   string    `json:"workload"`
	Scheme     string    `json:"scheme"`
	Profile    string    `json:"profile"`
	State      CellState `json:"state"`
	Worker     int       `json:"worker,omitempty"`
	DurationMs float64   `json:"duration_ms,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// Progress is the /progress document.
type Progress struct {
	Phase      string  `json:"phase,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`

	Total   int `json:"cells_total"`
	Pending int `json:"cells_pending"`
	Running int `json:"cells_running"`
	Done    int `json:"cells_done"`
	Failed  int `json:"cells_failed"`
	Skipped int `json:"cells_skipped"`

	Panics uint64 `json:"worker_panics"`

	// CellsPerSec is the completed-cell throughput since the tracker was
	// born; ETA divides the remaining cells by it (EtaKnown reports
	// whether at least one cell has completed, so the division is
	// meaningful).
	CellsPerSec float64 `json:"cells_per_sec"`
	EtaSec      float64 `json:"eta_sec"`
	EtaKnown    bool    `json:"eta_known"`

	// P50Ms / P95Ms are completed-cell latencies over the rolling
	// window; the slow-cell watchdog flags cells exceeding k× P95.
	P50Ms float64 `json:"cell_p50_ms"`
	P95Ms float64 `json:"cell_p95_ms"`

	Workers []WorkerProgress `json:"workers"`
	Cells   []CellProgress   `json:"cells"`
}

// summaryLocked fills Progress's header at now: the counts, rate, ETA
// and latency quantiles, but not the per-worker and per-cell lists.
// Callers hold t.mu.
func (t *CampaignTracker) summaryLocked(now time.Time) *Progress {
	p := &Progress{
		Phase:      t.phase,
		ElapsedSec: now.Sub(t.birth).Seconds(),
		Total:      len(t.cells),
		Pending:    t.counts[CellPending],
		Running:    t.counts[CellRunning],
		Done:       t.counts[CellDone],
		Failed:     t.counts[CellFailed],
		Skipped:    t.counts[CellSkipped],
		Panics:     t.panics,
	}
	sorted := t.latencies()
	p.P50Ms = quantile(sorted, 0.50).Seconds() * 1e3
	p.P95Ms = quantile(sorted, 0.95).Seconds() * 1e3
	if el := now.Sub(t.birth).Seconds(); el > 0 {
		p.CellsPerSec = float64(t.counts[CellDone]) / el
	}
	if remaining := p.Pending + p.Running; p.Done > 0 && p.CellsPerSec > 0 {
		p.EtaSec = float64(remaining) / p.CellsPerSec
		p.EtaKnown = true
	}
	return p
}

// Progress captures a point-in-time snapshot of the whole campaign.
func (t *CampaignTracker) Progress() *Progress {
	if t == nil {
		return &Progress{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	p := t.summaryLocked(now)
	ids := make([]int, 0, len(t.workers))
	for id := range t.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		w := t.workers[id]
		wp := WorkerProgress{ID: id, Idle: w.cell < 0, Heartbeat: w.heartbeat}
		if w.cell >= 0 {
			c := &t.cells[w.cell]
			wp.Workload, wp.Scheme, wp.Profile = c.meta.Workload, c.meta.Scheme, c.meta.Profile
			wp.StartedAt = w.started
			wp.RunningMs = now.Sub(w.started).Seconds() * 1e3
		}
		p.Workers = append(p.Workers, wp)
	}
	p.Cells = make([]CellProgress, len(t.cells))
	for i := range t.cells {
		c := &t.cells[i]
		cp := CellProgress{
			Phase: c.phase, Workload: c.meta.Workload, Scheme: c.meta.Scheme,
			Profile: c.meta.Profile, State: c.state, Error: c.errMsg,
		}
		if c.state == CellRunning {
			cp.Worker = c.worker
			cp.DurationMs = now.Sub(c.started).Seconds() * 1e3
		} else if c.dur > 0 {
			cp.DurationMs = c.dur.Seconds() * 1e3
		}
		p.Cells[i] = cp
	}
	return p
}

// Metrics renders the campaign's current state as a mergeable snapshot:
// the tracker's computed counts and rates, without Progress's per-cell
// list, so a scrape costs the same however many cells are registered.
// /metrics serves it merged with the server's Extra source.
func (t *CampaignTracker) Metrics() *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	if t == nil {
		return s
	}
	t.mu.Lock()
	p := t.summaryLocked(t.now())
	t.mu.Unlock()
	s.Counters["campaign_cells_done"] = uint64(p.Done)
	s.Counters["campaign_cells_failed"] = uint64(p.Failed)
	s.Counters["campaign_cells_skipped"] = uint64(p.Skipped)
	s.Counters["campaign_worker_panics"] = p.Panics
	s.Gauges["campaign_cells_total"] = float64(p.Total)
	s.Gauges["campaign_cells_pending"] = float64(p.Pending)
	s.Gauges["campaign_cells_running"] = float64(p.Running)
	s.Gauges["campaign_cells_per_sec"] = p.CellsPerSec
	s.Gauges["campaign_uptime_seconds"] = p.ElapsedSec
	s.Gauges["campaign_cell_latency_p50_seconds"] = p.P50Ms / 1e3
	s.Gauges["campaign_cell_latency_p95_seconds"] = p.P95Ms / 1e3
	if p.EtaKnown {
		s.Gauges["campaign_eta_seconds"] = p.EtaSec
	}
	return s
}

// watchdogInterval and watchdogK are the slow-cell watchdog's period
// and straggler factor.
const (
	watchdogInterval = 2 * time.Second
	watchdogK        = 4
)

// StartWatchdog begins the slow-cell watchdog: every watchdogInterval it
// checks each running cell against SlowLimit(watchdogK) and logs one
// warning per offender. Returns a stop function; both are nil-safe.
func (t *CampaignTracker) StartWatchdog() (stop func()) {
	if t == nil {
		return func() {}
	}
	done := make(chan struct{})
	tick := time.NewTicker(watchdogInterval)
	go func() {
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				t.sniff()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// minSamples is how many completed cells the straggler rule needs
// before its p95 threshold means anything.
const minSamples = 8

// SlowLimit is the one straggler rule, shared by the slow-cell watchdog
// and dist's hedger: a running cell is slow once it has run longer than
// k× the rolling p95 completed-cell latency. The rule is armed only
// after minSamples cells have completed with a positive p95; until then
// SlowLimit returns 0, false. Nil-safe.
func (t *CampaignTracker) SlowLimit(k float64) (limit time.Duration, armed bool) {
	if t == nil {
		return 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slowLimit(k)
}

// slowLimit is SlowLimit for callers that hold t.mu.
func (t *CampaignTracker) slowLimit(k float64) (time.Duration, bool) {
	if t.latN < minSamples {
		return 0, false
	}
	p95 := quantile(t.latencies(), 0.95)
	if p95 <= 0 {
		return 0, false
	}
	return time.Duration(k * float64(p95)), true
}

// sniff is one watchdog pass.
func (t *CampaignTracker) sniff() {
	t.mu.Lock()
	defer t.mu.Unlock()
	limit, armed := t.slowLimit(watchdogK)
	if !armed {
		return
	}
	now := t.now()
	for i := range t.cells {
		c := &t.cells[i]
		if c.state != CellRunning || c.warned || c.started.IsZero() {
			continue
		}
		if el := now.Sub(c.started); el > limit {
			c.warned = true
			t.log.Warn("slow cell",
				"workload", c.meta.Workload, "scheme", c.meta.Scheme,
				"profile", c.meta.Profile, "worker", c.worker,
				"elapsed", el.Round(time.Millisecond),
				"limit", limit.Round(time.Millisecond), "k", watchdogK)
		}
	}
}
