// Package exp regenerates every table and figure of the paper's
// evaluation (Section 6). One driver per experiment; each prints the same
// rows/series the paper reports and returns a typed result the tests and
// benchmarks assert on. See EXPERIMENTS.md for paper-vs-measured numbers.
package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Context configures an experiment run.
type Context struct {
	Params config.Params
	// Scale multiplies workload sizes (1 = evaluation default).
	Scale int
	// Seed selects the synthetic power-trace timeline.
	Seed int64
	// Quick restricts sweeps to a representative workload subset, for
	// tests and benchmarks.
	Quick bool
	// Seeds is the Monte-Carlo sample count for SeedSweep: timelines
	// Seed..Seed+Seeds-1 run per cell. Values below 1 mean 1.
	Seeds int
	// Deprecated: BatchWidth is ignored. Every seed of a SeedSweep runs
	// as its own matrix cell on the scalar engine.
	BatchWidth int
	// Only, when non-nil, further restricts the sweep to these workload
	// names. Names that match nothing are simply absent; an empty
	// resulting set fails validation in runMatrix.
	Only []string
	// Out receives the printed tables; nil discards them.
	Out io.Writer

	// Ctx, when non-nil, cancels the whole experiment: dispatch stops,
	// in-flight cells abort at their next epoch boundary, and runMatrix
	// returns an error wrapping Ctx.Err(). nil runs to completion.
	Ctx context.Context
	// CellTimeout, when positive, bounds each matrix cell's wall-clock
	// time; an overrunning cell fails with context.DeadlineExceeded while
	// the rest of the matrix completes.
	CellTimeout time.Duration
	// Journal, when non-nil, makes the run crash-safe: its index is the
	// context's store, so every simulated cell is appended durably and
	// cells proven under the identical configuration (and engine
	// version) are served from it. It is read once, at the context's
	// first matrix. See internal/journal and internal/store.
	Journal *journal.Journal
	// Chaos, when non-nil, injects deterministic faults (worker panics,
	// mid-run cancellation) for resilience testing. See internal/chaos.
	Chaos *chaos.Injector

	// Tracker, when non-nil, follows every matrix cell through its state
	// machine (pending/running/done/failed/journal-skipped) for the live
	// introspection endpoints. The nil path costs nothing: every hook is
	// a nil-safe method call carrying only pre-existing values. See
	// internal/obs and docs/OBSERVABILITY.md.
	Tracker *obs.CampaignTracker
	// Metrics, when non-nil, accumulates every simulated run's metrics
	// snapshot across the (parallel) experiment matrices. A cell the
	// store served from memory or the journal, or one served from an
	// equivalent cell's record or from its outage-free twin's, was not
	// simulated and contributes nothing; the store's counters,
	// exp.equivalent_hits and exp.twin_hits say how many were.
	Metrics *telemetry.Snapshot
	// TraceDir, when set, records one JSONL telemetry stream per
	// simulated run into that directory.
	TraceDir string

	metricsMu sync.Mutex
	traceSeq  atomic.Uint64

	// cells serves every matrix cell from Journal's index (Journal is
	// the caller's to close), or from a journal with no file when
	// Journal is nil. It is built at the first matrix.
	cellsOnce sync.Once
	cells     atomic.Pointer[store.Store]

	// equiv maps each (kind, supply class, fingerprint of what the
	// kind's runs read) the context has run to the raw params
	// fingerprint of the first matrix that ran it; see sources.
	equivMu   sync.Mutex
	equiv     map[equivKey]string
	equivHits atomic.Uint64
	twinHits  atomic.Uint64
}

// equivKey names what a scheme of one kind reads under one supply class:
// outage-free, kind.OutageFreeParams; harvested, kind.Params.
type equivKey struct {
	kind       arch.Kind
	outageFree bool
	fp         string
}

// newEquivKey returns the key of kind k's runs under params p and the
// supply class of profile.
func newEquivKey(k arch.Kind, profile *trace.Profile, p config.Params) equivKey {
	if profile == nil {
		return equivKey{k, true, k.OutageFreeParams(p).Fingerprint()}
	}
	return equivKey{k, false, k.Params(p).Fingerprint()}
}

// store returns the context's result store, building it on first use.
func (c *Context) store() *store.Store {
	c.cellsOnce.Do(func() { c.cells.Store(store.New(c.Journal)) })
	return c.cells.Load()
}

// ctx returns the run's context, defaulting to Background.
func (c *Context) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// CellError is the structured failure of one matrix cell: a simulation
// error or a recovered worker panic, carrying the cell's identity —
// everything needed to reproduce it. errors.As against *CellError
// recovers the identity; Unwrap exposes the cause (including
// context.Canceled for interrupted cells).
type CellError struct {
	journal.Cell
	Err error
	// Stack is the worker's stack at recovery time for panicking cells,
	// nil for ordinary errors.
	Stack []byte
}

func (e *CellError) Error() string {
	s := fmt.Sprintf("cell %s/%s under %s (seed %d, params %.8s): %v",
		e.Workload, e.Scheme, e.Profile, e.Seed, e.ParamsFP, e.Err)
	if e.Stack != nil {
		s += " (panic; stack captured)"
	}
	return s
}

func (e *CellError) Unwrap() error { return e.Err }

// DefaultContext returns the evaluation configuration.
func DefaultContext() *Context {
	return &Context{Params: config.Default(), Scale: 1, Seed: 1}
}

func (c *Context) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// QuickWorkloads is the sweep subset — two of each flavour (codec,
// crypto, image, irregular) — sorted by name. Context.Quick runs it, and
// so does a distributed campaign's "quick" workload set.
var QuickWorkloads = []string{
	"adpcmenc", "blowfishenc", "dijkstra", "fft",
	"gsmdec", "rijndaelenc", "sha", "susane",
}

// Workloads returns the experiment's workload list.
func (c *Context) Workloads() []workloads.Workload {
	all := workloads.All()
	if c.Quick {
		var out []workloads.Workload
		for _, w := range all {
			if slices.Contains(QuickWorkloads, w.Name) {
				out = append(out, w)
			}
		}
		all = out
	}
	if c.Only != nil {
		only := map[string]bool{}
		for _, n := range c.Only {
			only[n] = true
		}
		var out []workloads.Workload
		for _, w := range all {
			if only[w.Name] {
				out = append(out, w)
			}
		}
		all = out
	}
	return all
}

func (c *Context) builder(w workloads.Workload) core.Builder {
	scale := c.Scale
	return func() *ir.Program { return w.Build(scale) }
}

// cell identifies one simulation in a run matrix.
type cell struct {
	Workload string
	Kind     arch.Kind
}

// Matrix holds the results of workloads × schemes × seeds under one
// configuration.
type Matrix struct {
	Kinds []arch.Kind
	Names []string
	// Results holds each (workload, kind) cell's runs in seed order.
	Results map[cell][]*sim.Result
}

// Get returns the result for (workload, kind) under the matrix's first
// seed — the only one a figure runs.
func (m *Matrix) Get(name string, k arch.Kind) *sim.Result {
	return m.Results[cell{name, k}][0]
}

// Speedup returns kind's speedup over NVP for one workload.
func (m *Matrix) Speedup(name string, k arch.Kind) float64 {
	return float64(m.Get(name, arch.NVP).TimeNs) / float64(m.Get(name, k).TimeNs)
}

// GeomeanSpeedup aggregates speedups over a set of workload names (nil =
// all).
func (m *Matrix) GeomeanSpeedup(k arch.Kind, names []string) float64 {
	if names == nil {
		names = m.Names
	}
	xs := make([]float64, 0, len(names))
	for _, n := range names {
		xs = append(xs, m.Speedup(n, k))
	}
	return stats.Geomean(xs)
}

// profileName renders a trace profile for cell identities and errors.
func profileName(profile *trace.Profile) string {
	if profile == nil {
		return "outage-free"
	}
	return profile.String()
}

// withNVP returns NVP (the baseline every figure normalizes to) followed
// by kinds without duplicates, so a caller listing NVP explicitly does
// not double-run it.
func withNVP(kinds []arch.Kind) []arch.Kind {
	all := []arch.Kind{arch.NVP}
	seen := map[arch.Kind]bool{arch.NVP: true}
	for _, k := range kinds {
		if !seen[k] {
			seen[k] = true
			all = append(all, k)
		}
	}
	return all
}

// CellID builds the identity of one cell under this context's scale and
// the engine revision: workload, scheme, supply (nil = outage-free),
// power-trace seed and params fingerprint fp (config.Params.Fingerprint).
// It is the content-hash key of the journal and the result store, and
// the identity a *CellError reports.
func (c *Context) CellID(workload string, kind arch.Kind, profile *trace.Profile, seed int64, fp string) journal.Cell {
	return journal.Cell{
		Workload: workload,
		Scale:    c.Scale,
		Scheme:   kind.String(),
		Profile:  profileName(profile),
		Seed:     seed,
		ParamsFP: fp,
		Engine:   sim.EngineVersion,
	}
}

// matrixJob is one cell's work order: what to run, the identity — seed
// included — it runs, journals and fails under, and the cells whose
// records may stand for it, in the order tried (see sources).
type matrixJob struct {
	w    workloads.Workload
	k    arch.Kind
	id   journal.Cell
	from []source
}

// source is a cell whose record a matrix cell copies instead of
// simulating: the same workload, scale, scheme, seed and engine under
// supply profile (nil = outage-free) and raw params fingerprint fp. The
// copy is exact while the source's ledger total is at most bound; hits
// counts the cells the source served.
type source struct {
	profile *trace.Profile
	fp      string
	bound   float64
	hits    *atomic.Uint64
}

// sources registers kind k's cells of a matrix under profile and p (raw
// fingerprint fp) and returns their sources. The first is the
// *equivalent*: the first matrix that ran k under the same supply class
// reading the same params. A scheme runs with exactly kind.Params, and
// outage-free reads only kind.OutageFreeParams, so its record is the one
// this matrix would simulate: Fig 8's NVP, for one, never reads the
// cache size it sweeps. Under a power trace the second is the
// outage-free *twin*, looked up but not registered: a harvested run
// whose twin's ledger fits sim.QuietBudget crosses no trigger and
// retires exactly the twin's run. p is validated, so arch.New builds.
func (c *Context) sources(k arch.Kind, profile *trace.Profile, p config.Params, fp string) []source {
	key := newEquivKey(k, profile, p)
	c.equivMu.Lock()
	defer c.equivMu.Unlock()
	if c.equiv == nil {
		c.equiv = map[equivKey]string{}
	}
	var from []source
	if first, ok := c.equiv[key]; !ok {
		c.equiv[key] = fp
	} else if first != fp {
		from = append(from, source{profile, first, math.Inf(1), &c.equivHits})
	}
	if twin, ok := c.equiv[newEquivKey(k, nil, p)]; ok && profile != nil {
		from = append(from, source{nil, twin, sim.QuietBudget(arch.New(k, p)), &c.twinHits})
	}
	return from
}

// serve returns j's record copied from the first of its sources the
// store holds within the source's bound. Reading a source counts no
// store hit: the store counts j itself as a miss. Records are immutable,
// so the copy shares the histograms.
func serve(st *store.Store, j matrixJob) (*journal.Record, bool) {
	for _, src := range j.from {
		id := j.id
		id.Profile, id.ParamsFP = profileName(src.profile), src.fp
		rec, ok := st.Peek(id)
		if !ok || rec.Result.Ledger.Total() > src.bound {
			continue
		}
		src.hits.Add(1)
		return &journal.Record{Result: rec.Result, NVMHash: rec.NVMHash}, true
	}
	return nil, false
}

// runMatrix executes every workload on NVP plus the requested kinds under
// `seeds` power-trace timelines each (seeds c.Seed through
// c.Seed+seeds-1; the figures run one), in parallel, under fresh per-run
// cursors of the same trace profile (nil = outage-free). Deterministic:
// every scheme sees the identical timeline for a given seed.
//
// Resilience properties (see docs/ROBUSTNESS.md):
//   - Each worker isolates panics: one bad cell fails one cell, as a
//     *CellError carrying the cell's identity (seed included) plus the
//     recovered stack, while healthy cells complete. errors.Join reports
//     every failure.
//   - A cancelled context stops dispatch, aborts in-flight cells at their
//     next epoch boundary, and joins the workers before returning — no
//     orphaned goroutines, ever.
//   - Every cell goes through the context's store, so a run simulates
//     each distinct cell once. With a journal attached, completed cells
//     are durable and re-runs serve them from disk, so any interruption
//     (cancel, panic, kill -9) resumes to a byte-identical result.
//   - A cell one of whose sources (its equivalent, then a harvested
//     cell's outage-free twin) the store already holds within bound is
//     served from that record, not simulated, and still stored under its
//     own key.
func (c *Context) runMatrix(kinds []arch.Kind, profile *trace.Profile, p config.Params, seeds int) (*Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("exp: invalid params: %w", err)
	}
	wl := c.Workloads()
	if len(wl) == 0 {
		return nil, errors.New("exp: empty workload set — nothing to run")
	}
	m := &Matrix{Kinds: kinds, Results: map[cell][]*sim.Result{}}
	for _, w := range wl {
		m.Names = append(m.Names, w.Name)
	}

	allKinds, fp := withNVP(kinds), p.Fingerprint()
	from := make([][]source, len(allKinds))
	for i, k := range allKinds {
		from[i] = c.sources(k, profile, p, fp)
	}
	// A cell's seeds are adjacent jobs, so its results are one subslice.
	var jobs []matrixJob
	for _, w := range wl {
		for i, k := range allKinds {
			for s := 0; s < seeds; s++ {
				id := c.CellID(w.Name, k, profile, c.Seed+int64(s), fp)
				jobs = append(jobs, matrixJob{w: w, k: k, id: id, from: from[i]})
			}
		}
	}

	ctx := c.ctx()
	if c.Chaos != nil {
		var cancel context.CancelFunc
		ctx, cancel = c.Chaos.Arm(ctx)
		defer cancel()
	}

	// Live tracking: register the matrix's cells before dispatch so
	// /progress sees every cell from the start. Guarded — building the
	// meta slice is the one tracker interaction that allocates, and the
	// nil path must stay allocation-free.
	var trkBase int
	if c.Tracker != nil {
		metas := make([]obs.CellMeta, len(jobs))
		for i, j := range jobs {
			metas[i] = obs.CellMeta{Workload: j.id.Workload, Scheme: j.id.Scheme, Profile: j.id.Profile}
		}
		trkBase = c.Tracker.AddCells(metas)
	}

	// Fixed-size worker pool: exactly min(NumCPU, len(jobs)) goroutines
	// exist at any moment, however large the matrix — the alternative
	// (spawn per job, gate on a semaphore inside) stacks up one idle
	// goroutine per queued cell. Results and errors land in indexed
	// slots, so no mutex and no result reordering.
	st := c.store()
	results := make([]*sim.Result, len(jobs))
	errs := make([]error, len(jobs))
	workers := min(runtime.NumCPU(), len(jobs))
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				// Heartbeat + cell state hooks are nil-safe no-ops when no
				// tracker is attached; the disabled path allocates nothing
				// (pinned by TestTrackerHooksNilZeroAlloc).
				c.Tracker.Heartbeat(i)
				// A cancelled run drains the queue without simulating:
				// every undone cell reports the cancellation and the pool
				// winds down promptly.
				if err := ctx.Err(); err != nil {
					errs[idx] = &CellError{Cell: j.id, Err: err}
					c.Tracker.Fail(i, trkBase+idx, err, false)
					continue
				}
				// The store serves a cell an earlier matrix ran from
				// memory and a proven one from the journal; any other it
				// copies from one of its sources or simulates once, and
				// makes durable before returning it. Only a simulated cell
				// is ever running.
				rec, tier, err := st.GetOrCompute(ctx, j.id, func(ctx context.Context) (*journal.Record, error) {
					if rec, ok := serve(st, j); ok {
						return rec, nil
					}
					c.Tracker.Start(i, trkBase+idx)
					res, err := c.runCell(ctx, j, p, profile)
					if err != nil {
						return nil, err
					}
					return journal.FromResult(res), nil
				})
				if err != nil {
					var ce *CellError
					if !errors.As(err, &ce) {
						ce = &CellError{Cell: j.id, Err: err}
						err = ce
					}
					errs[idx] = err
					c.Tracker.Fail(i, trkBase+idx, err, ce.Stack != nil)
					continue
				}
				// The record is immutable and shared with the store, so
				// the result is a copy of it (with no NVM image).
				res := rec.Result
				results[idx] = &res
				if tier == store.TierDisk {
					c.Tracker.Skip(trkBase + idx)
				} else {
					c.Tracker.Done(i, trkBase+idx)
				}
			}
		}()
	}
	// Dispatch until done or cancelled; either way the channel closes and
	// the workers join before runMatrix returns.
feed:
	for idx := range jobs {
		select {
		case jobCh <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobCh)
	wg.Wait()

	// Error assembly: a cancelled run reports the cancellation (wrapping
	// ctx.Err() so errors.Is works) plus any genuine cell failures;
	// otherwise every failed cell is reported, in job order, while the
	// healthy cells' results stand — and, with a journal, are already
	// durable, so the matrix is resumable.
	var real []error
	interrupted := 0
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) && ctx.Err() != nil {
			interrupted++
			continue
		}
		real = append(real, err)
	}
	if err := ctx.Err(); err != nil {
		done := 0
		for _, r := range results {
			if r != nil {
				done++
			}
		}
		real = append(real, fmt.Errorf("exp: matrix canceled with %d/%d cells complete (%d interrupted): %w",
			done, len(jobs), interrupted, err))
	}
	if err := errors.Join(real...); err != nil {
		return nil, err
	}
	for i := 0; i < len(jobs); i += seeds {
		m.Results[cell{jobs[i].w.Name, jobs[i].k}] = results[i : i+seeds]
	}
	return m, nil
}

// runCell runs one matrix cell inside a panic isolation boundary: a
// panicking simulation (or injected chaos fault) is converted into a
// *CellError with the recovered value and stack, so the rest of the
// matrix is unaffected.
func (c *Context) runCell(ctx context.Context, j matrixJob, p config.Params, profile *trace.Profile) (res *sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &CellError{Cell: j.id, Err: fmt.Errorf("worker panic: %v", v), Stack: debug.Stack()}
		}
	}()
	if c.Chaos != nil {
		c.Chaos.CellStart(j.w.Name, j.k.String())
	}
	runCtx := ctx
	if c.CellTimeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, c.CellTimeout)
		defer cancel()
	}
	var src trace.Source
	if profile != nil {
		src = trace.New(*profile, j.id.Seed)
	}
	res, runErr := c.runJob(runCtx, j.w, j.k, p, src)
	if runErr != nil {
		return nil, &CellError{Cell: j.id, Err: runErr}
	}
	return res, nil
}

// runJob executes one (workload, scheme) simulation, recording per-run
// telemetry and folding the run's metrics into the context accumulator
// when those are enabled.
func (c *Context) runJob(ctx context.Context, w workloads.Workload, k arch.Kind, p config.Params, src trace.Source) (*sim.Result, error) {
	var tr *telemetry.Tracer
	var traceFile *os.File
	if c.TraceDir != "" {
		seq := c.traceSeq.Add(1)
		name := fmt.Sprintf("%04d_%s_%v.jsonl", seq, w.Name, k)
		f, err := os.Create(filepath.Join(c.TraceDir, name))
		if err != nil {
			return nil, err
		}
		traceFile = f
		tr = telemetry.NewTracer(telemetry.NewJSONLSink(f), 0)
	}
	// Binaries come from the process-wide compile cache: schemes sharing
	// a compiler mode (and figures sharing parameters) reuse one
	// compilation instead of rebuilding per cell.
	res, err := func() (*sim.Result, error) {
		cres, err := core.SharedCompileCache().Get(core.KeyFor(w.Name, c.Scale, k, p), c.builder(w), k, p)
		if err != nil {
			return nil, err
		}
		return core.RunCompiledCtx(ctx, cres, k, p, src, tr)
	}()
	if traceFile != nil {
		if cerr := tr.Close(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	if c.Metrics != nil {
		snap := res.Metrics()
		c.metricsMu.Lock()
		defer c.metricsMu.Unlock()
		if err := c.Metrics.Merge(snap); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// MetricsSnapshot returns a copy of the accumulated simulation metrics
// merged, once the first matrix has built the store, with the store's
// counters, exp.equivalent_hits (the cells served from an equivalent's
// record) and exp.twin_hits (those served from an outage-free twin's),
// and with a chaos injector's chaos.injected_panics and
// chaos.injected_cancels. It is safe to call concurrently with a running
// matrix — the live /metrics endpoint scrapes it mid-campaign. An empty
// snapshot when metrics accumulation is off.
func (c *Context) MetricsSnapshot() *telemetry.Snapshot {
	out := telemetry.NewSnapshot()
	if c.Metrics == nil {
		return out
	}
	c.metricsMu.Lock()
	// Merging into an empty snapshot deep-copies and cannot conflict.
	_ = out.Merge(c.Metrics)
	c.metricsMu.Unlock()
	if st := c.cells.Load(); st != nil {
		_ = out.Merge(st.Stats().Metrics()) // counters and gauges only: cannot fail
		out.Counters["exp.equivalent_hits"] = c.equivHits.Load()
		out.Counters["exp.twin_hits"] = c.twinHits.Load()
	}
	if c.Chaos != nil {
		out.Counters["chaos.injected_panics"] = c.Chaos.Panics()
		out.Counters["chaos.injected_cancels"] = c.Chaos.Cancels()
	}
	return out
}

// suites splits the matrix workload names by benchmark suite.
func (c *Context) suites() (media, mi []string) {
	for _, w := range c.Workloads() {
		if w.Suite == "mediabench" {
			media = append(media, w.Name)
		} else {
			mi = append(mi, w.Name)
		}
	}
	return
}
