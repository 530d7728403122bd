// Package sim is the simulation engine: it couples the in-order core and a
// scheme's memory hierarchy to the capacitor and power trace, injects power
// failures at the exact instants the energy model dictates, drives each
// scheme's backup/recovery protocol, and collects the statistics every
// experiment consumes.
//
// The engine checks the voltage before every instruction. JIT-checkpoint
// schemes trip a backup when V falls to VBackup (after the monitor's
// propagation delay) and then sleep until VRestore; SweepCache executes
// down to Vmin and loses all volatile state. Recharge periods fast-forward
// through the power trace. Energy accounting is ledger-delta based: scheme
// operations attribute energy to the shared ledger, and the engine draws
// exactly the per-step ledger delta from the capacitor, so no joule is
// counted twice.
package sim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// EngineVersion names the engine's result-affecting revision. Journal
// entries (internal/journal) record it so cached cell results are never
// reused across model changes: bump it whenever the golden digests
// (TestFastPathGolden) are deliberately regenerated.
const EngineVersion = "engine-v3-fastpath"

// RegionHistMax is the largest region size, in instructions, that a
// run's region-size histogram gives a bucket; longer regions count as
// its overflow.
const RegionHistMax = 256

// Options configures one run.
type Options struct {
	// Source is the power trace; nil runs outage-free with an ideal
	// supply (the Figure 5 configuration).
	Source trace.Source
	// Ctx, when non-nil, cancels the run: the engine polls it at epoch
	// boundaries (never inside the per-instruction hot loop) and returns
	// a *CanceledError wrapping Ctx.Err(). nil runs to completion.
	Ctx context.Context
	// MaxInstructions aborts runaway executions. 0 means 2e9.
	MaxInstructions uint64
	// StagnationNs bounds one recharge wait. 0 means 60 s.
	StagnationNs int64
	// Tracer receives the run's telemetry events; nil (the default)
	// disables tracing at the cost of one branch per emit site.
	Tracer *telemetry.Tracer
	// Precise forces the reference engine: every interpreter call retires
	// one instruction and is settled at once (harvest, then draw). The
	// default engine settles once per epoch, sized so that no voltage
	// trigger can fire inside one, and falls back to one-instruction
	// calls near the thresholds; TestBatchedMatchesPrecise proves the two
	// produce byte-identical results and telemetry. Precise is the test
	// oracle for that proof and a debugging aid. See docs/PERFORMANCE.md.
	Precise bool
}

// Result is everything measured during a run. Its JSON encoding, with
// NVM left out, is the durable record that journals, the result store and
// the service's responses carry (journal.Record), so the tags below are
// the on-disk format. Adding, renaming, reordering or retagging a field
// changes the records' encoding and digests (an omitempty field left at
// zero aside); journal lines written before such a change then fail their
// digest check, and their cells re-run.
type Result struct {
	Scheme string `json:"scheme"`
	Halted bool   `json:"halted"`

	TimeNs    int64  `json:"time_ns"`    // wall-clock: execution + backup/restore + recharge
	RunNs     int64  `json:"run_ns"`     // execution time only
	ChargeNs  int64  `json:"charge_ns"`  // powered-off recharge time
	RestoreNs int64  `json:"restore_ns"` // time spent inside scheme restore work (excl. recharge)
	Outages   uint64 `json:"outages"`

	Counts cpu.Counts    `json:"counts"`
	Ledger energy.Ledger `json:"ledger"`
	Arch   arch.Stats    `json:"arch"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	DirtyEvictions uint64 `json:"dirty_evictions"`

	NVMReads      uint64 `json:"nvm_reads"`
	NVMWrites     uint64 `json:"nvm_writes"`
	NVMLineReads  uint64 `json:"nvm_line_reads"`
	NVMLineWrites uint64 `json:"nvm_line_writes"`

	// RegionSizes samples dynamic instructions per region (Figure 12a);
	// populated for sweep- and replay-compiled binaries.
	RegionSizes *stats.Hist `json:"region_sizes,omitempty"`

	// NVM is the final memory image, for differential consistency checks.
	// It is never encoded: a record keeps only its hash.
	NVM *mem.NVM `json:"-"`
}

// MissRate returns the L1D miss rate of the run.
func (r *Result) MissRate() float64 {
	tot := r.CacheHits + r.CacheMisses
	if tot == 0 {
		return 0
	}
	return float64(r.CacheMisses) / float64(tot)
}

// ParallelismEfficiency returns Section 6.3's (Tp-Twait)/Tp, clamped to
// [0, 1]: a run with no persistence work reports 1, and accumulated wait
// exceeding Tp (possible when structural stalls pile up across outages)
// reports 0 rather than a nonsensical negative efficiency.
func (r *Result) ParallelismEfficiency() float64 {
	if r.Arch.TpNs == 0 {
		return 1
	}
	eff := float64(r.Arch.TpNs-r.Arch.TwaitNs) / float64(r.Arch.TpNs)
	if eff < 0 {
		return 0
	}
	return eff
}

// String renders the run as the human-readable report cmd/sweepsim
// prints: timing, instruction mix, energy ledger, cache and NVM traffic,
// and — where the scheme produces them — region and JIT statistics.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall clock     %12.3f ms   (run %.3f ms, recharge %.3f ms)\n",
		float64(r.TimeNs)/1e6, float64(r.RunNs)/1e6, float64(r.ChargeNs)/1e6)
	fmt.Fprintf(&b, "instructions   %12d      (loads %d, stores %d, ckpt %d)\n",
		r.Counts.Executed, r.Counts.Loads, r.Counts.Stores, r.Counts.CkptStores)
	fmt.Fprintf(&b, "power outages  %12d\n", r.Outages)
	led := r.Ledger
	fmt.Fprintf(&b, "energy         %12.3f uJ   (compute %.3f, nvm %.3f, persist %.3f,\n",
		led.Total()*1e6, led.Compute*1e6, led.NVM*1e6, led.Persist*1e6)
	fmt.Fprintf(&b, "                                  backup %.3f, restore %.3f, sleep %.3f)\n",
		led.Backup*1e6, led.Restore*1e6, led.Sleep*1e6)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "cache          %11.2f%% miss  (%d hits, %d misses, %d dirty evictions)\n",
			100*r.MissRate(), r.CacheHits, r.CacheMisses, r.DirtyEvictions)
	}
	fmt.Fprintf(&b, "NVM traffic    %12d word reads, %d word writes, %d line reads, %d line writes\n",
		r.NVMReads, r.NVMWrites, r.NVMLineReads, r.NVMLineWrites)
	if r.Arch.RegionsExecuted > 0 {
		fmt.Fprintf(&b, "regions        %12d      (mean %.1f insts, %.1f stores; parallelism eff %.1f%%)\n",
			r.Arch.RegionsExecuted, r.RegionSizes.Mean(),
			r.Arch.StoresPerRegion.Mean(), 100*r.ParallelismEfficiency())
		fmt.Fprintf(&b, "buffer search  %12d      (%d bypassed by empty-bit, %d served misses)\n",
			r.Arch.BufferSearches, r.Arch.BufferBypasses, r.Arch.BufferHits)
	}
	if r.Arch.BackupEvents > 0 {
		fmt.Fprintf(&b, "JIT events     %12d backups, %d restores, %d lines backed up\n",
			r.Arch.BackupEvents, r.Arch.RestoreEvents, r.Arch.LinesBackedUp)
	}
	return b.String()
}

// Metrics converts the run's counters into a telemetry snapshot: every
// ad-hoc Result field becomes a named counter, gauge, or histogram, so
// runs merge uniformly across a parallel experiment matrix.
func (r *Result) Metrics() *telemetry.Snapshot {
	s := telemetry.NewSnapshot()
	c, g := s.Counters, s.Gauges
	c["sim.runs"] = 1 // merged snapshots count aggregated runs
	c["sim.outages"] = r.Outages
	c["sim.instructions"] = r.Counts.Executed
	c["sim.loads"] = r.Counts.Loads
	c["sim.stores"] = r.Counts.Stores
	c["sim.ckpt_stores"] = r.Counts.CkptStores
	c["sim.save_pcs"] = r.Counts.SavePCs
	c["sim.region_ends"] = r.Counts.RegionEnds
	c["sim.clwbs"] = r.Counts.Clwbs
	c["sim.fences"] = r.Counts.Fences
	c["cache.hits"] = r.CacheHits
	c["cache.misses"] = r.CacheMisses
	c["cache.dirty_evictions"] = r.DirtyEvictions
	c["nvm.reads"] = r.NVMReads
	c["nvm.writes"] = r.NVMWrites
	c["nvm.line_reads"] = r.NVMLineReads
	c["nvm.line_writes"] = r.NVMLineWrites
	c["arch.regions"] = r.Arch.RegionsExecuted
	c["arch.buffer_searches"] = r.Arch.BufferSearches
	c["arch.buffer_bypasses"] = r.Arch.BufferBypasses
	c["arch.buffer_hits"] = r.Arch.BufferHits
	c["arch.backups"] = r.Arch.BackupEvents
	c["arch.restores"] = r.Arch.RestoreEvents
	c["arch.lines_backed_up"] = r.Arch.LinesBackedUp
	c["arch.replayed_stores"] = r.Arch.ReplayedStores
	c["arch.redone_drains"] = r.Arch.RedoneDrains

	// Run-phase breakdown: where the wall clock went.
	g["phase.total_ns"] = float64(r.TimeNs)
	g["phase.run_ns"] = float64(r.RunNs)
	g["phase.charge_ns"] = float64(r.ChargeNs)
	g["phase.restore_ns"] = float64(r.RestoreNs)
	g["phase.waw_stall_ns"] = float64(r.Arch.WAWStallNs)
	g["phase.fence_stall_ns"] = float64(r.Arch.FenceStallNs)
	g["phase.clwb_stall_ns"] = float64(r.Arch.ClwbStallNs)
	g["phase.tp_ns"] = float64(r.Arch.TpNs)
	g["phase.twait_ns"] = float64(r.Arch.TwaitNs)

	g["energy.compute_j"] = r.Ledger.Compute
	g["energy.nvm_j"] = r.Ledger.NVM
	g["energy.persist_j"] = r.Ledger.Persist
	g["energy.backup_j"] = r.Ledger.Backup
	g["energy.restore_j"] = r.Ledger.Restore
	g["energy.sleep_j"] = r.Ledger.Sleep
	g["energy.total_j"] = r.Ledger.Total()

	// Histograms are deep-copied: a snapshot never aliases the result.
	if r.RegionSizes != nil {
		s.Hists["region.sizes"] = r.RegionSizes.Clone()
	}
	if r.Arch.StoresPerRegion != nil {
		s.Hists["region.stores"] = r.Arch.StoresPerRegion.Clone()
	}
	return s
}

// ErrStagnation reports a power source too weak to ever recharge the
// capacitor to the restore threshold.
var ErrStagnation = errors.New("sim: stagnation — power source cannot recharge the capacitor")

// ErrNoProgress is the sentinel behind NoProgressError: a configuration
// whose per-cycle energy window cannot cover even one instruction plus its
// own backup/restore costs would power-cycle forever. errors.Is against
// this sentinel matches; errors.As against *NoProgressError recovers the
// scheme/cycle context.
var ErrNoProgress = errors.New("sim: no forward progress")

// NoProgressError carries the context of a tripped forward-progress guard.
type NoProgressError struct {
	Scheme   string
	Outages  uint64 // power cycles completed when the guard tripped
	Executed uint64 // instructions retired in total
	NowNs    int64  // simulated clock at the trip
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("%v on %s: outage %d at %.3f ms with %d instructions retired — energy window too small for its backup/restore costs",
		ErrNoProgress, e.Scheme, e.Outages, float64(e.NowNs)/1e6, e.Executed)
}

func (e *NoProgressError) Unwrap() error { return ErrNoProgress }

// CanceledError reports a run interrupted through Options.Ctx. It wraps
// the context's error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work.
type CanceledError struct {
	Scheme   string
	Executed uint64 // instructions retired before the interruption
	NowNs    int64  // simulated clock at the interruption
	Err      error  // the context's error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled on %s at %.3f ms after %d instructions: %v",
		e.Scheme, float64(e.NowNs)/1e6, e.Executed, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// cancelPollInterval is how many driver iterations (interpreter calls
// plus power cycles) elapse between context polls. The poll is a single
// counter decrement on the common path, so cancellation support costs
// nothing measurable; the interval bounds cancellation latency to a few
// thousand instructions of simulated work.
const cancelPollInterval = 1024

// cancelChunkInstrs bounds one unbounded interpreter call when a context
// is attached: without it a single call could run the whole program and
// never observe the cancellation. The chunk is large enough that the
// extra call overhead vanishes (one call per ~1M instructions).
const cancelChunkInstrs = 1 << 20

// InitNVM loads the program's data image and recovery PC slot into the
// scheme's NVM.
func InitNVM(s arch.Scheme, l *ir.Linked) {
	nvm := s.NVM()
	for _, run := range linkedImage(l) {
		nvm.PokeImage(run.addr, run.data)
	}
}

// imageRun is a contiguous byte run of a program's initial NVM image.
type imageRun struct {
	addr int64
	data []byte
}

// imageCache memoizes the coalesced NVM image per linked program: the
// image is a pure function of the Linked (data inits plus the recovery PC
// slot), and a matrix or seed sweep boots the same program many times, so
// each boot after the first is a handful of bulk copies instead of a poke
// per word. The map holds strong references, which also guarantees a cached
// pointer key cannot be recycled for a different program; the reset cap
// bounds the footprint.
var imageCache struct {
	sync.Mutex
	m map[*ir.Linked][]imageRun
}

func linkedImage(l *ir.Linked) []imageRun {
	imageCache.Lock()
	defer imageCache.Unlock()
	if runs, ok := imageCache.m[l]; ok {
		return runs
	}
	var runs []imageRun
	add := func(addr int64, b ...byte) {
		if n := len(runs); n > 0 && runs[n-1].addr+int64(len(runs[n-1].data)) == addr {
			runs[n-1].data = append(runs[n-1].data, b...)
			return
		}
		runs = append(runs, imageRun{addr, append([]byte(nil), b...)})
	}
	var w [8]byte
	for _, di := range l.Prog.Inits {
		if di.Byte {
			add(di.Addr, byte(di.Val))
		} else {
			binary.LittleEndian.PutUint64(w[:], uint64(di.Val))
			add(di.Addr, w[:]...)
		}
	}
	binary.LittleEndian.PutUint64(w[:], uint64(l.EntryPC))
	add(ir.PCSlotAddr, w[:]...)
	if imageCache.m == nil || len(imageCache.m) >= 64 {
		imageCache.m = map[*ir.Linked][]imageRun{}
	}
	imageCache.m[l] = runs
	return runs
}

// eTableCache shares the tabulated per-latency instruction energies across
// runners: the table is a pure function of (EInstr, PRun) and read-only
// after construction, so every run under the same parameters uses one
// copy.
var eTableCache struct {
	sync.Mutex
	m map[[2]float64][]float64
}

func eInstrTable(eInstr, pRun float64) []float64 {
	key := [2]float64{eInstr, pRun}
	eTableCache.Lock()
	defer eTableCache.Unlock()
	if t, ok := eTableCache.m[key]; ok {
		return t
	}
	t := make([]float64, 4096)
	for ns := range t {
		t[ns] = eInstr + pRun*float64(ns)*1e-9
	}
	if eTableCache.m == nil || len(eTableCache.m) >= 64 {
		eTableCache.m = map[[2]float64][]float64{}
	}
	eTableCache.m[key] = t
	return t
}

// epochMaxInstrNs is the engine's working bound on a single instruction's
// latency when sizing batched-accounting epochs. It is a planning margin,
// not a hard ISA limit: epochs are closed early enough that one more
// instruction of this length still fits inside the current power-trace
// segment, and an instruction that blows past it (a deep persist-buffer
// drain) closes the epoch immediately after retiring.
const epochMaxInstrNs = 16_384

// minEpochInstrs is the smallest epoch worth opening: below this the
// budget-check and settlement overhead cancel the savings, so the engine
// just steps precisely.
const minEpochInstrs = 64

// slackFraction is the share of the energy above the trigger floor that
// an epoch, or a whole run under QuietBudget, may consume. Any fraction
// strictly below one keeps every pre-instruction point above the floor;
// the eighth held back absorbs float drift in the capacitor's energy and
// voltage arithmetic.
const slackFraction = 0.875

// triggerFloor returns the stored energy at the highest voltage trigger
// the engine compares against before each instruction: Vmin, or for a JIT
// scheme VBackup when that is higher.
func triggerFloor(c *energy.Capacitor, p *config.Params, jit bool) float64 {
	floor := c.EnergyAt(p.Vmin)
	if jit {
		if eb := c.EnergyAt(p.VBackup); eb > floor {
			floor = eb
		}
	}
	return floor
}

// QuietBudget returns the ledger total under which a run of s crosses no
// voltage trigger on any power trace, and so returns its outage-free
// run's Result byte for byte: slackFraction of the energy s's capacitor
// holds between Vmax and its highest trigger. It returns 0, a budget no
// run fits, for a scheme that requests backups of its own (NvMR: its
// rename table forces them under any trace) and for params the engine
// would reject under a power trace.
//
// The proof is an induction over instructions. Every ledger charge is
// non-negative, so the ledger only grows. The capacitor starts at Vmax;
// harvest only adds energy, and the Vmax clamp only removes energy that
// harvest added; draw removes exactly the ledger delta, whether settled
// per instruction or per epoch. So before each instruction the stored
// energy is at least E(Vmax) minus the ledger so far, and that is at
// least E(Vmax) minus the outage-free total, which is above the floor by
// an eighth of the slack whenever the total fits the budget. No
// comparison in preInstrEvents fires: the run takes no backup and no
// outage, and makes the outage-free run's ledger adds in the same order.
func QuietBudget(s arch.Scheme) float64 {
	p, jit := s.Params(), s.JIT()
	if p.Validate() != nil {
		return 0
	}
	if jit {
		if _, ok := s.(backupRequester); ok || p.ValidateJIT() != nil {
			return 0
		}
	}
	c := energy.NewCapacitor(p.CapacitorF, p.Vmax, p.Vmax)
	return (c.Energy() - triggerFloor(c, &p, jit)) * slackFraction
}

// quantV quantizes a reported voltage to 1 µV. Telemetry voltage fields
// exist for humans and plots; quantizing them makes the JSONL stream
// insensitive to ULP-level differences in capacitor state between the
// batched and precise engines, keeping their traces byte-identical.
func quantV(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// runner is one simulation run's mutable state: the driver loop, its
// three kinds of interpreter call and the power-event handlers.
type runner struct {
	s      arch.Scheme
	ms     cpu.MemSystem // s, converted once: keeps convI2I off the hot loop
	opt    Options
	p      config.Params
	core   *cpu.CPU
	led    *energy.Ledger
	cap    *energy.Capacitor
	cursor *trace.Cursor
	tr     *telemetry.Tracer
	res    *Result
	timing cpu.StepTiming

	now          int64
	armed        bool
	regionInstrs int
	// freeCtl and epochCtl parameterize the interpreter calls: the same
	// ledger charge and sinks, and the stop rules of an unbounded call
	// (freeCtl, also used for single instructions) or of an epoch (the
	// budget and segment deadline are set per epoch).
	freeCtl, epochCtl cpu.Control

	// Forward-progress guard: a configuration whose per-cycle energy
	// window cannot cover even one instruction (plus its own restore
	// draw) would power-cycle forever.
	lastOutageExec uint64
	zeroProgress   int

	// ctx, when non-nil, cancels the run; cancelCountdown rate-limits the
	// Err() poll to one per cancelPollInterval loop iterations.
	ctx             context.Context
	cancelCountdown int
}

// pollCancel is the driver's cancellation check: a counter decrement on
// the common path, a context poll every cancelPollInterval calls.
func (r *runner) pollCancel() error {
	if r.ctx == nil {
		return nil
	}
	if r.cancelCountdown--; r.cancelCountdown > 0 {
		return nil
	}
	r.cancelCountdown = cancelPollInterval
	return r.checkCancel()
}

// checkCancel polls the context unconditionally.
func (r *runner) checkCancel() error {
	if r.ctx == nil {
		return nil
	}
	if err := r.ctx.Err(); err != nil {
		return &CanceledError{Scheme: r.s.Name(), Executed: r.core.Counts.Executed, NowNs: r.now, Err: err}
	}
	return nil
}

// backupRequester is the optional capability of a JIT scheme that can
// require an extra backup now, for structural reasons. Only NvMR has it
// (its rename table filling up), so no other scheme pays for the query.
type backupRequester interface {
	NeedsBackup() bool
}

// newRunner validates opt, boots the scheme, and builds one run's mutable
// state. It leaves the pre-canceled-context check to the caller (Run
// wants the Result back even then).
func newRunner(l *ir.Linked, s arch.Scheme, opt Options) (*runner, error) {
	p := s.Params()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid params for %s: %w", s.Name(), err)
	}
	if opt.Source != nil && s.JIT() {
		if err := p.ValidateJIT(); err != nil {
			return nil, fmt.Errorf("sim: invalid params for %s: %w", s.Name(), err)
		}
	}
	if opt.MaxInstructions == 0 {
		opt.MaxInstructions = 2_000_000_000
	}
	if opt.StagnationNs == 0 {
		opt.StagnationNs = 60_000_000_000
	}

	InitNVM(s, l)
	s.SetTracer(opt.Tracer)
	core := cpu.NewLinked(l)
	if ff, ok := s.(cpu.FreeFetcher); ok && ff.FetchIsFree() {
		core.SetFetchFree(true)
	}
	s.Boot(int64(l.EntryPC))

	r := &runner{
		s:      s,
		ms:     s,
		opt:    opt,
		p:      p,
		core:   core,
		led:    s.Ledger(),
		cap:    energy.NewCapacitor(p.CapacitorF, p.Vmax, p.Vmax),
		tr:     opt.Tracer,
		res:    &Result{Scheme: s.Name(), RegionSizes: stats.NewHist(RegionHistMax)},
		timing: cpu.StepTiming{CycleNs: p.CycleNs, MulCycles: p.MulCycles, DivCycles: p.DivCycles},
		armed:  true,
	}
	// The per-latency energy table turns the per-instruction float
	// conversion and multiplies into one load; each entry is the bit-exact
	// result of EInstr + PRun*ns*1e-9, so ledger totals are unchanged.
	r.freeCtl = cpu.Control{
		EByNs:       eInstrTable(p.EInstr, p.PRun),
		EInstr:      p.EInstr,
		PRun:        p.PRun,
		Led:         r.led,
		Budget:      math.Inf(1),
		SegDeadline: math.MaxInt64,
		MaxInstrNs:  math.MaxInt64,
		OnRegionEnd: r.res.RegionSizes.Add,
		Tracer:      opt.Tracer,
	}
	r.epochCtl = r.freeCtl
	r.epochCtl.MaxInstrNs = epochMaxInstrNs
	// The structural-backup query, nil for every scheme that cannot
	// raise one: preInstrEvents and each epoch consult this one func.
	if br, ok := s.(backupRequester); ok && s.JIT() {
		r.epochCtl.NeedsBackup = br.NeedsBackup
	}
	if opt.Source != nil {
		r.cursor = trace.NewCursor(opt.Source)
	}
	if opt.Ctx != nil {
		r.ctx = opt.Ctx
		r.cancelCountdown = cancelPollInterval
	}
	return r, nil
}

// Run executes the linked program on the scheme until it halts.
func Run(l *ir.Linked, s arch.Scheme, opt Options) (*Result, error) {
	r, err := newRunner(l, s, opt)
	if err != nil {
		return nil, err
	}
	// A run that is already canceled does no work at all.
	if err := r.checkCancel(); err != nil {
		return r.res, err
	}
	if err := r.run(); err != nil {
		return r.res, err
	}
	r.finish()
	return r.res, nil
}

// budgetErr builds the instruction-budget error all engine loops share.
func (r *runner) budgetErr() error {
	return fmt.Errorf("sim: instruction budget (%d) exceeded on %s", r.opt.MaxInstructions, r.s.Name())
}

// drawRun charges the capacitor with harvest and drains run power over an
// interval where the core is on but not retiring instructions (backup,
// restore, detection delays).
func (r *runner) drawRun(dt int64) {
	if dt <= 0 {
		return
	}
	sec := float64(dt) * 1e-9
	r.led.Compute += r.p.PRun * sec
	if r.cursor != nil {
		r.cap.Add(r.cursor.Harvest(dt))
	}
	r.cap.Draw(r.p.PRun * sec)
	r.now += dt
	r.res.RunNs += dt
}

// powerCycle sleeps through a recharge and restores the scheme.
func (r *runner) powerCycle() error {
	p, s, core, led, cap, res := &r.p, r.s, r.core, r.led, r.cap, r.res
	if core.Counts.Executed == r.lastOutageExec {
		r.zeroProgress++
		if r.zeroProgress > 256 {
			return &NoProgressError{
				Scheme:   s.Name(),
				Outages:  res.Outages,
				Executed: core.Counts.Executed,
				NowNs:    r.now,
			}
		}
	} else {
		r.zeroProgress = 0
	}
	r.lastOutageExec = core.Counts.Executed
	res.Outages++
	r.tr.Emit(telemetry.EvOutageBegin, r.now, int64(res.Outages), 0, 0, quantV(cap.V()))
	chargeBefore := res.ChargeNs
	s.PowerFail(r.now)
	elapsed, ok := r.cursor.ChargeUntil(cap, p.VRestore, p.PSleep, r.opt.StagnationNs, led)
	r.now += elapsed
	res.ChargeNs += elapsed
	if !ok {
		return fmt.Errorf("%w (scheme %s, %.1f ms waited)", ErrStagnation, s.Name(), float64(elapsed)/1e6)
	}
	// Restore propagation delay (T_plh) at sleep draw.
	sec := float64(p.RestoreDelayNs) * 1e-9
	led.Sleep += p.PSleep * sec
	cap.Draw(p.PSleep * sec)
	cap.Add(r.cursor.Harvest(p.RestoreDelayNs))
	r.now += p.RestoreDelayNs
	res.ChargeNs += p.RestoreDelayNs

	before := led.Total()
	restoreStart := r.now
	pc, rcost := s.Restore(r.now, &core.Regs)
	r.tr.Emit(telemetry.EvRestore, restoreStart, pc, rcost.Ns, 0, 0)
	core.PC = pc
	cap.Draw(led.Total() - before)
	r.drawRun(rcost.Ns)
	res.RestoreNs += rcost.Ns
	// The restoration itself was fed while still tethered to the
	// charging path: top the capacitor back up to the restore
	// threshold before execution resumes, so arbitrarily expensive
	// restores lengthen the charge instead of eating the run window.
	if cap.V() < p.VRestore {
		elapsed, ok := r.cursor.ChargeUntil(cap, p.VRestore, p.PSleep, r.opt.StagnationNs, led)
		r.now += elapsed
		res.ChargeNs += elapsed
		if !ok {
			return fmt.Errorf("%w (scheme %s, restore top-up)", ErrStagnation, s.Name())
		}
	}
	r.regionInstrs = 0
	r.armed = true
	r.tr.Emit(telemetry.EvOutageEnd, r.now, int64(res.Outages), res.ChargeNs-chargeBefore, 0, quantV(cap.V()))
	return nil
}

// preInstrEvents runs the pre-instruction power protocol: structural
// backups, the voltage-triggered JIT backup, the Vmin brown-out, and
// re-arming. It reports handled=true when a power cycle consumed the slot
// and the caller must re-enter its loop from the top.
func (r *runner) preInstrEvents() (handled bool, err error) {
	p, s, core, led, cap := &r.p, r.s, r.core, r.led, r.cap
	jit := s.JIT()
	// Structural backup request (NvMR rename-table full).
	if nb := r.epochCtl.NeedsBackup; nb != nil && nb() {
		before := led.Total()
		bcost := s.Backup(r.now, &core.Regs, core.PC)
		r.tr.Emit(telemetry.EvBackup, r.now, core.PC, bcost.Ns, 0, 0)
		cap.Draw(led.Total() - before)
		r.drawRun(bcost.Ns)
	}
	// The voltage is re-read only after a draw can have moved it, so the
	// comparisons below see exactly the values per-compare reads would.
	v := cap.V()
	// Voltage-triggered JIT backup.
	if jit && r.armed && v <= p.VBackup {
		r.drawRun(p.BackupDelayNs) // T_phl detection delay
		before := led.Total()
		bcost := s.Backup(r.now, &core.Regs, core.PC)
		r.tr.Emit(telemetry.EvBackup, r.now, core.PC, bcost.Ns, 0, 0)
		cap.Draw(led.Total() - before)
		r.drawRun(bcost.Ns)
		r.armed = false
		if !s.ContinuesAfterBackup() {
			return true, r.powerCycle()
		}
		v = cap.V()
	}
	// Hard brown-out: SweepCache by design, NvMR while
	// speculating past its backup.
	if v < p.Vmin {
		return true, r.powerCycle()
	}
	// Re-arm once the source lifts the voltage back up
	// (NvMR keeps executing through this window).
	if jit && !r.armed && v > p.VBackup+0.02 {
		r.armed = true
	}
	return false, nil
}

// run is the engine's one driver loop. Each iteration checks the
// instruction cap and cancellation, runs the pre-instruction power
// protocol when a power trace is attached, and then makes one interpreter
// call: an unbounded one with no power trace (nothing can cross a
// threshold, and nothing observable reads the capacitor), an epoch under
// deferred settlement when the stored energy is provably far from every
// trigger, and otherwise one instruction settled at once. Options.Precise
// forces the one-instruction call every time.
func (r *runner) run() error {
	jit := r.s.JIT()
	for !r.core.Halted {
		if r.core.Counts.Executed >= r.opt.MaxInstructions {
			return r.budgetErr()
		}
		if err := r.pollCancel(); err != nil {
			return err
		}
		if r.cursor != nil {
			handled, err := r.preInstrEvents()
			if err != nil {
				return err
			}
			if handled {
				continue
			}
		}
		// An unbounded call or an epoch can retire millions of
		// instructions; poll unconditionally before one so cancellation
		// latency is bounded by one call, not cancelPollInterval of them.
		switch {
		case r.opt.Precise:
			r.step()
		case r.cursor == nil:
			if err := r.checkCancel(); err != nil {
				return err
			}
			r.unbounded()
		default:
			budget := r.epochBudget(jit)
			if budget <= 0 {
				r.step()
				continue
			}
			if err := r.checkCancel(); err != nil {
				return err
			}
			r.epoch(budget)
		}
	}
	return nil
}

// exec makes one interpreter call under ctl's stop rules, capped at max
// instructions in all, and books its elapsed time.
func (r *runner) exec(ctl *cpu.Control, max uint64) int64 {
	ctl.Max, ctl.RegionInstrs = max, r.regionInstrs
	ns, ri := r.core.Run(r.now, r.ms, r.timing, ctl)
	r.now += ns
	r.res.RunNs += ns
	r.regionInstrs = ri
	return ns
}

// step retires one instruction with immediate capacitor settlement
// (harvest, then draw): the reference accounting sequence.
func (r *runner) step() {
	before := r.led.Total()
	ns := r.exec(&r.freeCtl, r.core.Counts.Executed+1)
	if r.cursor != nil {
		r.cap.Add(r.cursor.Harvest(ns))
		r.cap.Draw(r.led.Total() - before)
	}
}

// unbounded retires instructions with no power trace, to halt or the
// instruction cap. With a context attached each call stops after
// cancelChunkInstrs; the chunk boundary only changes where the driver
// re-enters, never any retired state.
func (r *runner) unbounded() {
	max := r.opt.MaxInstructions
	if r.ctx != nil {
		if c := r.core.Counts.Executed + cancelChunkInstrs; c < max {
			max = c
		}
	}
	r.exec(&r.freeCtl, max)
}

// epochBudget returns the energy (joules) the engine may consume under
// one deferred settlement, or 0 when it must fall back to precise
// stepping: while a JIT scheme is disarmed (the re-arm crossing needs
// per-instruction voltage), when the source out-powers the core (voltage
// rising toward a re-arm or Vmax clamp), near the Vmax clamp itself, too
// close to the end of the current power-trace segment, or simply too
// close to a trigger threshold for a worthwhile epoch.
//
// The budget is a fixed fraction (strictly below one) of the slack
// between the present stored energy and the highest trigger floor. Draw
// is bounded by the ledger delta regardless of harvest, so before every
// instruction of the epoch the capacitor provably holds more than any
// trigger threshold — the precise path's voltage comparisons could not
// have fired and are skipped wholesale.
func (r *runner) epochBudget(jit bool) float64 {
	if jit && !r.armed {
		return 0
	}
	pseg := r.cursor.Power()
	if pseg >= r.p.PRun {
		return 0
	}
	if r.cursor.SegmentRemaining() < 2*epochMaxInstrNs {
		return 0
	}
	eNow := r.cap.Energy()
	// Clamp guard: the precise path adds each instruction's harvest
	// before drawing its cost; if that transient could reach Vmax the
	// clamp would discard energy that batched settlement keeps.
	if r.cap.EnergyAt(r.p.Vmax)-eNow <= 2*pseg*epochMaxInstrNs*1e-9 {
		return 0
	}
	// Any fraction strictly below one keeps every pre-instruction point of
	// the epoch above the floor (the draw at each such point is below the
	// budget, and harvest only adds), so the reference engine's threshold
	// comparisons provably could not have fired — the equivalence is to
	// the precise path, independent of the fraction. 7/8 rather than 1/2
	// makes the per-discharge epoch count log_{8}, not log_{2}, and leaves
	// correspondingly fewer instructions to the precise-stepping tail once
	// the slack stops being worth an epoch.
	budget := (eNow - triggerFloor(r.cap, &r.p, jit)) * slackFraction
	minWorthwhile := minEpochInstrs * (r.p.EInstr + r.p.PRun*float64(r.p.CycleNs)*1e-9)
	if budget <= minWorthwhile {
		return 0
	}
	return budget
}

// epoch retires instructions under one deferred capacitor settlement.
// The epoch closes when the ledger delta reaches the budget, when the
// next instruction might not fit in the current power-trace segment,
// after an instruction at least epochMaxInstrNs long, on a structural
// backup request, on halt, or at the instruction cap. A pending backup
// request ends the epoch before any instruction retires.
func (r *runner) epoch(budget float64) {
	ledStart := r.led.Total()
	var epochNs int64
	ctl := &r.epochCtl
	if ctl.NeedsBackup == nil || !ctl.NeedsBackup() {
		ctl.LedStart, ctl.Budget = ledStart, budget
		ctl.SegDeadline = r.now + r.cursor.SegmentRemaining() - epochMaxInstrNs
		epochNs = r.exec(ctl, r.opt.MaxInstructions)
	}
	// Settle: draw first — the epoch invariant keeps the floor distant,
	// and with the source weaker than the run draw the net flow is
	// negative, so this order can touch neither the zero floor nor the
	// Vmax clamp.
	r.cap.Draw(r.led.Total() - ledStart)
	r.cap.Add(r.cursor.Harvest(epochNs))
}

// finish settles background persistence and fills the result.
func (r *runner) finish() {
	r.s.Sync(r.now + 1<<40) // settle all background persistence
	r.s.Finalize()          // drain volatile leftovers so the NVM image is observable
	r.tr.Emit(telemetry.EvHalt, r.now, int64(r.core.Counts.Executed), 0, 0, 0)

	res := r.res
	res.Halted = true
	res.TimeNs = r.now
	res.Counts = r.core.Counts
	res.Ledger = *r.led
	res.Arch = *r.s.Stats()
	if c := r.s.Cache(); c != nil {
		res.CacheHits, res.CacheMisses, res.DirtyEvictions = c.Hits, c.Misses, c.DirtyEvictions
	}
	nvm := r.s.NVM()
	res.NVMReads, res.NVMWrites = nvm.Reads, nvm.Writes
	res.NVMLineReads, res.NVMLineWrites = nvm.LineReads, nvm.LineWrites
	res.NVM = nvm
}
