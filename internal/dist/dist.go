// Package dist is the fault-tolerant campaign coordinator: it shards a
// campaign into cell leases and farms them to N sweepd workers over
// HTTP, surviving worker kills, hangs, stragglers, and torn journals.
//
// The design leans entirely on the substrate the lower layers already
// proved: every cell is content-hash keyed (internal/journal) and
// memoized (internal/store), so a lease is idempotent — re-issuing,
// duplicating, or hedging one can change which worker answers but never
// what the answer is. The coordinator therefore never needs distributed
// consensus; it needs only to keep issuing leases until every cell has
// exactly one accepted completion, and to prove at the end that the
// merged result set is byte-identical to a single-process run (the
// digest identity the chaos suite and scripts/dist_smoke.sh pin).
//
// Fault model and response:
//
//   - Worker crash / SIGKILL: connection errors are transient — the
//     lease is re-queued for any worker, the dead worker is benched
//     with exponentially growing cooldowns so its lanes stop burning
//     dispatches.
//   - Worker hang / SIGSTOP: the lease TTL expires, the coordinator
//     abandons the lease (the worker aborts the simulation at its own
//     copy of the TTL) and re-issues it elsewhere.
//   - Straggler: once enough cells have completed to trust the rolling
//     p95 (obs.CampaignTracker's latency window), any cell in flight
//     longer than HedgeK×p95 is hedged — dispatched a second time to
//     another lane — and the first completion wins; losing leases are
//     canceled (work stealing).
//   - Deterministic cell failure: a 500 is retried with capped
//     exponential backoff + jitter; MaxAttempts consecutive compute
//     failures quarantine the cell — reported, never silently dropped —
//     and the campaign degrades gracefully instead of aborting.
//   - Poisoned request: a 400 can never succeed anywhere; it is
//     quarantined immediately.
//   - Torn worker journal: the worker's own tolerant journal Open
//     re-simulates what the tail lost; the coordinator only ever sees
//     digest-checked completions.
//   - Total loss (every worker gone): StallTimeout without a single
//     worker response fails the campaign rather than spinning forever.
//
// Completions are deduplicated by task, digest-checked against the
// record they carry, and appended to one merged journal, so the merged
// artifact replays through the normal resume machinery.
package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config assembles a Coordinator.
type Config struct {
	// Workers are the sweepd base URLs to farm leases to.
	Workers []string
	// LanesPerWorker is how many leases one worker holds concurrently
	// (default 2; a worker's own -maxsim semaphore gates real work).
	LanesPerWorker int
	// LeaseTTL bounds one lease's wall clock; it must exceed the
	// worst-case single-cell simulation time on a healthy worker, or
	// every lease for that cell expires and the cell starves (default
	// 30s).
	LeaseTTL time.Duration
	// MaxAttempts quarantines a cell after this many deterministic
	// compute failures (default 3). Transient failures — connection
	// errors, expired leases, 502/503/504 — never count.
	MaxAttempts int
	// HedgeK hedges a cell once it has been in flight HedgeK× the
	// rolling p95 cell latency (default 4; needs ≥8 completions first).
	HedgeK float64
	// StallTimeout fails the campaign after this long without a single
	// worker response (default 2m): the all-workers-dead bound.
	StallTimeout time.Duration
	// MergeJournal, when non-nil, receives every accepted completion —
	// the single merged result set (callers own Close).
	MergeJournal *journal.Journal
	// Tracker follows the campaign for /progress; nil gets a private
	// tracker (the hedger needs its latency window regardless).
	Tracker *obs.CampaignTracker
	Log     *slog.Logger
}

func (c *Config) withDefaults() error {
	if len(c.Workers) == 0 {
		return errors.New("dist: no workers")
	}
	if c.LanesPerWorker <= 0 {
		c.LanesPerWorker = 2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.HedgeK <= 0 {
		c.HedgeK = 4
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 2 * time.Minute
	}
	if c.Log == nil {
		c.Log = slog.Default()
	}
	if c.Tracker == nil {
		c.Tracker = obs.NewCampaignTracker(c.Log)
	}
	return nil
}

// task is one cell's coordinator-side state. Guarded by Coordinator.mu.
type task struct {
	idx int
	req service.CellRequest

	trkIdx int // obs tracker cell index

	attempts int // leases issued (dispatches, including hedges/reissues)
	failures int // deterministic compute failures (quarantine counter)

	queued    bool
	notBefore time.Time // backoff gate for the next dispatch

	// inflight maps lease ID → cancel for every outstanding dispatch;
	// the winning completion cancels the losers.
	inflight map[string]func()
	started  time.Time // earliest outstanding dispatch (hedge clock)

	done        bool
	quarantined bool
	lastErr     string
	out         Outcome
}

// Coordinator runs campaigns against a fixed worker set. One
// Coordinator runs one campaign at a time.
type Coordinator struct {
	cfg     Config
	clients []*service.Client
	runID   string

	mu       sync.Mutex
	tasks    []*task
	queue    []int // task indexes awaiting (re-)dispatch
	remain   int   // tasks not yet terminal (done or quarantined)
	leaseSeq int
	bench    []benchState // per worker
	lastBeat time.Time    // last worker response of any kind
	runErr   error

	wake   chan struct{} // queue became runnable
	doneCh chan struct{} // remain hit 0
	rep    Report
}

// benchState is one worker's cooldown after connection-level failures:
// each consecutive failure doubles the bench (250ms → 5s cap); any
// response resets it.
type benchState struct {
	streak int
	until  time.Time
}

const (
	benchBase = 250 * time.Millisecond
	benchCap  = 5 * time.Second

	// hedgeInterval is the straggler-scan period.
	hedgeInterval = 100 * time.Millisecond
	// retryBase and retryCap shape a cell's backoff after a compute
	// failure, with full jitter over the upper half.
	retryBase = 100 * time.Millisecond
	retryCap  = 5 * time.Second
)

// New validates the config and builds the coordinator (one HTTP client
// per worker; the coordinator owns retry policy, so the clients
// themselves never retry).
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		runID:  obs.NewRunID(),
		bench:  make([]benchState, len(cfg.Workers)),
		wake:   make(chan struct{}, 1),
		doneCh: make(chan struct{}),
	}
	for _, w := range cfg.Workers {
		cl := service.NewClient(w)
		cl.Retry = service.RetryPolicy{Attempts: 1}
		c.clients = append(c.clients, cl)
	}
	return c, nil
}

// Close releases the worker clients' idle connection pools.
func (c *Coordinator) Close() {
	for _, cl := range c.clients {
		if t, ok := cl.HTTP.Transport.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
}

// Run farms every request out as leases and blocks until each cell is
// done or quarantined, the context dies, or the campaign stalls.
// Quarantined cells alone are not an error — they are reported in the
// Report so degradation is explicit, never silent.
func (c *Coordinator) Run(ctx context.Context, reqs []service.CellRequest) (*Report, error) {
	if len(reqs) == 0 {
		return &Report{Workers: c.cfg.Workers}, nil
	}
	metas := make([]obs.CellMeta, len(reqs))
	for i, r := range reqs {
		metas[i] = obs.CellMeta{Workload: r.Workload, Scheme: r.Scheme, Profile: r.Profile}
	}
	c.cfg.Tracker.BeginPhase("dist")
	base := c.cfg.Tracker.AddCells(metas)

	c.mu.Lock()
	c.tasks = make([]*task, len(reqs))
	c.queue = c.queue[:0]
	c.remain = len(reqs)
	c.lastBeat = time.Now()
	for i, r := range reqs {
		c.tasks[i] = &task{idx: i, req: r, trkIdx: base + i, queued: true, inflight: map[string]func(){}}
		c.queue = append(c.queue, i)
	}
	c.rep = Report{Workers: c.cfg.Workers}
	c.mu.Unlock()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for wi := range c.clients {
		for lane := 0; lane < c.cfg.LanesPerWorker; lane++ {
			wg.Add(1)
			laneID := wi*c.cfg.LanesPerWorker + lane
			go func(wi, laneID int) {
				defer wg.Done()
				c.lane(runCtx, wi, laneID)
			}(wi, laneID)
		}
	}
	wg.Add(2)
	go func() { defer wg.Done(); c.hedger(runCtx) }()
	go func() { defer wg.Done(); c.stallMonitor(runCtx) }()

	select {
	case <-c.doneCh:
	case <-runCtx.Done():
	}
	cancel()
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.tasks {
		switch {
		case t.done:
			c.rep.Completed = append(c.rep.Completed, t.out)
		case t.quarantined:
			c.rep.Quarantined = append(c.rep.Quarantined,
				Quarantined{Cell: t.req, Attempts: t.attempts, LastError: t.lastErr})
		}
	}
	rep := c.rep
	err := c.runErr
	if err == nil && ctx.Err() != nil && c.remain > 0 {
		err = ctx.Err()
	}
	return &rep, err
}

// lane is one worker's dispatch loop: claim the next runnable task,
// lease it to this worker, classify the outcome, repeat.
func (c *Coordinator) lane(ctx context.Context, wi, laneID int) {
	for {
		if !c.waitBench(ctx, wi) {
			return
		}
		t := c.next(ctx)
		if t == nil {
			return
		}
		c.dispatch(ctx, wi, laneID, t)
	}
}

// waitBench sleeps out the worker's cooldown; false means the run ended.
func (c *Coordinator) waitBench(ctx context.Context, wi int) bool {
	for {
		c.mu.Lock()
		d := time.Until(c.bench[wi].until)
		c.mu.Unlock()
		if d <= 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-c.doneCh:
			return false
		case <-time.After(d):
		}
	}
}

// next claims the first runnable queued task, blocking until one exists.
// nil means the campaign is over (done, canceled).
func (c *Coordinator) next(ctx context.Context) *task {
	for {
		c.mu.Lock()
		now := time.Now()
		var claimed *task
		minWait := time.Duration(-1)
		keep := c.queue[:0] // filter in place; reads stay ahead of writes
		for _, ti := range c.queue {
			t := c.tasks[ti]
			if t.done || t.quarantined {
				continue // stale entry (won or retired while queued)
			}
			if claimed == nil {
				if wait := t.notBefore.Sub(now); wait <= 0 {
					claimed = t
					t.queued = false
					continue
				} else if minWait < 0 || wait < minWait {
					minWait = wait
				}
			}
			keep = append(keep, ti)
		}
		c.queue = keep
		c.mu.Unlock()
		if claimed != nil {
			return claimed
		}
		if minWait < 0 || minWait > 25*time.Millisecond {
			minWait = 25 * time.Millisecond // idle poll bound; enqueue wakes us sooner
		}
		select {
		case <-ctx.Done():
			return nil
		case <-c.doneCh:
			return nil
		case <-c.wake:
		case <-time.After(minWait):
		}
	}
}

// enqueue re-queues a task (idempotently) and wakes one lane. Callers
// hold c.mu.
func (c *Coordinator) enqueue(t *task, delay time.Duration) {
	if t.done || t.quarantined || t.queued {
		return
	}
	t.queued = true
	t.notBefore = time.Now().Add(delay)
	c.queue = append(c.queue, t.idx)
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// dispatch issues one lease for t to worker wi and classifies the
// outcome.
func (c *Coordinator) dispatch(ctx context.Context, wi, laneID int, t *task) {
	c.mu.Lock()
	if t.done || t.quarantined {
		c.mu.Unlock()
		return
	}
	c.leaseSeq++
	leaseID := fmt.Sprintf("%s-%06d", c.runID, c.leaseSeq)
	t.attempts++
	attempt := t.attempts
	lctx, lcancel := context.WithTimeout(ctx, c.cfg.LeaseTTL)
	t.inflight[leaseID] = lcancel
	if len(t.inflight) == 1 {
		t.started = time.Now()
	}
	c.mu.Unlock()
	defer lcancel()

	c.cfg.Tracker.Start(laneID, t.trkIdx)
	resp, err := c.clients[wi].Lease(lctx, service.LeaseRequest{
		LeaseID: leaseID,
		Attempt: attempt,
		TTLMs:   c.cfg.LeaseTTL.Milliseconds(),
		Cell:    t.req,
	})

	c.mu.Lock()
	delete(t.inflight, leaseID)
	if err == nil {
		c.bench[wi] = benchState{}
		c.lastBeat = time.Now()
		if resp.Result == nil || resp.Result.Record == nil {
			// A 200 without a record is a torn response; transient.
			c.rep.Reissues++
			c.enqueue(t, 0)
			c.mu.Unlock()
			return
		}
		if got := resp.Result.Record.Digest(); got != resp.Result.Digest {
			// The worker's own digest disagrees with its record: corrupt
			// in flight or a sick worker. Never accept; re-prove elsewhere.
			c.rep.DigestMismatches++
			c.rep.Reissues++
			c.cfg.Log.Warn("lease completion failed digest check — re-issuing",
				"worker", c.cfg.Workers[wi], "lease", leaseID,
				"claimed", resp.Result.Digest, "computed", got)
			c.benchLocked(wi)
			c.enqueue(t, 0)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		c.complete(laneID, t, resp)
		return
	}

	if ctx.Err() != nil {
		c.mu.Unlock()
		return // run over; Run assembles the report
	}
	if t.done || t.quarantined {
		// The cell reached a terminal state on another lane while we
		// were out; this lease was canceled (work stealing) or wasted.
		c.rep.CanceledLeases++
		c.mu.Unlock()
		return
	}
	c.classify(wi, laneID, t, lctx, err)
	c.mu.Unlock()
}

// classify handles a failed lease. Callers hold c.mu; run ctx is alive
// and t is not terminal.
func (c *Coordinator) classify(wi, laneID int, t *task, lctx context.Context, err error) {
	t.lastErr = err.Error()
	var se *service.StatusError
	switch {
	case errors.Is(lctx.Err(), context.DeadlineExceeded):
		// Lease TTL expired: the worker is hung or the cell outran the
		// TTL. Steal the work: re-issue elsewhere, bench the worker.
		c.rep.Expired++
		c.rep.Reissues++
		c.benchLocked(wi)
		c.enqueue(t, 0)
	case errors.As(err, &se) && se.Status == 400:
		// A request the service rejects is poisoned everywhere, forever.
		c.lastBeat = time.Now()
		c.quarantineLocked(laneID, t, err)
	case errors.As(err, &se) && (se.Status == 502 || se.Status == 503 || se.Status == 504):
		// Draining worker or gateway hiccup: transient, not the cell's
		// fault. Route around.
		c.lastBeat = time.Now()
		c.rep.Reissues++
		c.benchLocked(wi)
		c.enqueue(t, 0)
	case errors.As(err, &se):
		// A 500-class answer is a deterministic compute failure (panic,
		// no-progress, chaos): retry with backoff, quarantine at the cap.
		c.lastBeat = time.Now()
		t.failures++
		if t.failures >= c.cfg.MaxAttempts {
			c.quarantineLocked(laneID, t, err)
			return
		}
		c.rep.Retries++
		c.enqueue(t, service.Jitter(service.Backoff(retryBase, retryCap, t.failures-1)))
	case errors.Is(err, context.Canceled):
		// Our own cancel without t.done: the run is shutting down via a
		// path ctx.Err() hasn't surfaced yet. Leave the task; Run reports
		// it as incomplete.
	default:
		// Connection-level: dial refused, reset, torn body. The worker is
		// the suspect, not the cell.
		c.rep.ConnFailures++
		c.rep.Reissues++
		c.benchLocked(wi)
		c.enqueue(t, 0)
	}
}

// benchLocked extends a worker's cooldown after a connection-level
// failure. Callers hold c.mu.
func (c *Coordinator) benchLocked(wi int) {
	b := &c.bench[wi]
	b.until = time.Now().Add(service.Backoff(benchBase, benchCap, b.streak))
	b.streak++
}

// quarantineLocked retires a poisoned cell: reported, never retried
// again, never silently dropped. Callers hold c.mu.
func (c *Coordinator) quarantineLocked(laneID int, t *task, err error) {
	t.quarantined = true
	t.lastErr = err.Error()
	c.cfg.Tracker.Fail(laneID, t.trkIdx, err, false)
	c.cfg.Log.Warn("cell quarantined",
		"workload", t.req.Workload, "scheme", t.req.Scheme,
		"attempts", t.attempts, "failures", t.failures, "err", err)
	c.retireLocked(t)
}

// retireLocked finishes a task's lifecycle. Callers hold c.mu.
func (c *Coordinator) retireLocked(t *task) {
	for _, cancel := range t.inflight {
		cancel()
	}
	c.remain--
	if c.remain == 0 {
		c.closeDoneLocked()
	}
}

// closeDoneLocked closes doneCh exactly once (fail and the last retire
// can race). Callers hold c.mu.
func (c *Coordinator) closeDoneLocked() {
	select {
	case <-c.doneCh:
	default:
		close(c.doneCh)
	}
}

// complete accepts the first completion for a task: dedup, cancel the
// losing leases, append to the merged journal (before the task counts
// as finished, so Run never returns with appends still in flight).
func (c *Coordinator) complete(laneID int, t *task, resp *service.LeaseResponse) {
	r := resp.Result
	c.mu.Lock()
	if t.done || t.quarantined {
		c.rep.Duplicates++
		if t.done && t.out.Digest != r.Digest {
			// Two workers proved the same cell with different digests:
			// the determinism contract is broken. Loudly visible.
			c.rep.DigestMismatches++
			c.cfg.Log.Error("duplicate completion digest mismatch",
				"workload", t.req.Workload, "scheme", t.req.Scheme,
				"first", t.out.Digest, "second", r.Digest, "worker", resp.Worker)
		}
		c.mu.Unlock()
		return
	}
	t.done = true
	t.out = Outcome{
		Cell: t.req, Key: r.Key, Digest: r.Digest, Tier: r.Tier,
		Worker: resp.Worker, Attempts: t.attempts,
	}
	for id, cancel := range t.inflight {
		if id != resp.LeaseID {
			cancel()
		}
	}
	cell, rec := r.Cell, r.Record
	c.mu.Unlock()

	c.cfg.Tracker.Done(laneID, t.trkIdx)
	if c.cfg.MergeJournal != nil {
		if err := c.cfg.MergeJournal.Append(cell, rec); err != nil {
			c.fail(fmt.Errorf("dist: merged journal append: %w", err))
			return
		}
	}

	c.mu.Lock()
	c.retireLocked(t)
	c.mu.Unlock()
}

// fail records the first hard campaign error and stops the run.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.runErr == nil {
		c.runErr = err
	}
	c.closeDoneLocked()
	c.mu.Unlock()
}

// hedger is the straggler scan: once the tracker's straggler rule is
// armed, any cell with exactly one lease in flight for longer than
// SlowLimit(HedgeK) is re-enqueued, so another lane races the straggler
// and the first completion cancels the loser.
func (c *Coordinator) hedger(ctx context.Context) {
	tick := time.NewTicker(hedgeInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.doneCh:
			return
		case <-tick.C:
		}
		limit, armed := c.cfg.Tracker.SlowLimit(c.cfg.HedgeK)
		if !armed {
			continue // too early to know what "slow" means
		}
		now := time.Now()
		c.mu.Lock()
		for _, t := range c.tasks {
			if t.done || t.quarantined || t.queued || len(t.inflight) != 1 {
				continue
			}
			if now.Sub(t.started) <= limit {
				continue
			}
			c.rep.Hedges++
			c.rep.Reissues++
			c.cfg.Log.Info("hedging straggler cell",
				"workload", t.req.Workload, "scheme", t.req.Scheme,
				"elapsed", now.Sub(t.started).Round(time.Millisecond),
				"limit", limit.Round(time.Millisecond), "k", c.cfg.HedgeK)
			c.enqueue(t, 0)
		}
		c.mu.Unlock()
	}
}

// stallMonitor fails the campaign when no worker has answered anything
// for StallTimeout — the every-worker-is-gone bound that keeps reissue
// loops from spinning forever.
func (c *Coordinator) stallMonitor(ctx context.Context) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.doneCh:
			return
		case <-tick.C:
		}
		c.mu.Lock()
		stalled := time.Since(c.lastBeat) > c.cfg.StallTimeout
		c.mu.Unlock()
		if stalled {
			c.fail(fmt.Errorf("dist: campaign stalled — no worker response in %v", c.cfg.StallTimeout))
			return
		}
	}
}
