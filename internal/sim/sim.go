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
	"os"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/isa"
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
	// RegionHistMax bounds the region-size histogram. 0 means 256.
	RegionHistMax int
	// Tracer receives the run's telemetry events; nil (the default)
	// disables tracing at the cost of one branch per emit site.
	Tracer *telemetry.Tracer
	// Precise forces the reference engine: capacitor settlement (ledger
	// sum, harvest integration, draw) after every retired instruction.
	// The default engine batches settlements over epochs sized so that
	// no voltage trigger can fire inside one, falling back to precise
	// stepping near the thresholds; TestBatchedMatchesPrecise proves the
	// two produce byte-identical results and telemetry. Precise remains
	// for differential testing and debugging. See docs/PERFORMANCE.md.
	Precise bool
}

// Result is everything measured during a run.
type Result struct {
	Scheme string
	Halted bool

	TimeNs    int64 // wall-clock: execution + backup/restore + recharge
	RunNs     int64 // execution time only
	ChargeNs  int64 // powered-off recharge time
	RestoreNs int64 // time spent inside scheme restore work (excl. recharge)
	Outages   uint64

	Counts cpu.Counts
	Ledger energy.Ledger
	Arch   arch.Stats

	CacheHits      uint64
	CacheMisses    uint64
	DirtyEvictions uint64

	NVMReads      uint64
	NVMWrites     uint64
	NVMLineReads  uint64
	NVMLineWrites uint64

	// RegionSizes samples dynamic instructions per region (Figure 12a);
	// populated for sweep- and replay-compiled binaries.
	RegionSizes *stats.Hist

	// NVM is the final memory image, for differential consistency checks.
	NVM *mem.NVM
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

// OutageRate returns outages per simulated millisecond of wall clock, or
// 0 for an instantaneous (empty) run.
func (r *Result) OutageRate() float64 {
	if r.TimeNs == 0 {
		return 0
	}
	return float64(r.Outages) / (float64(r.TimeNs) / 1e6)
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
	reg := telemetry.NewRegistry()
	reg.Counter("sim.runs").Add(1) // merged snapshots count aggregated runs
	reg.Counter("sim.outages").Add(r.Outages)
	reg.Counter("sim.instructions").Add(r.Counts.Executed)
	reg.Counter("sim.loads").Add(r.Counts.Loads)
	reg.Counter("sim.stores").Add(r.Counts.Stores)
	reg.Counter("sim.ckpt_stores").Add(r.Counts.CkptStores)
	reg.Counter("sim.save_pcs").Add(r.Counts.SavePCs)
	reg.Counter("sim.region_ends").Add(r.Counts.RegionEnds)
	reg.Counter("sim.clwbs").Add(r.Counts.Clwbs)
	reg.Counter("sim.fences").Add(r.Counts.Fences)
	reg.Counter("cache.hits").Add(r.CacheHits)
	reg.Counter("cache.misses").Add(r.CacheMisses)
	reg.Counter("cache.dirty_evictions").Add(r.DirtyEvictions)
	reg.Counter("nvm.reads").Add(r.NVMReads)
	reg.Counter("nvm.writes").Add(r.NVMWrites)
	reg.Counter("nvm.line_reads").Add(r.NVMLineReads)
	reg.Counter("nvm.line_writes").Add(r.NVMLineWrites)
	reg.Counter("arch.regions").Add(r.Arch.RegionsExecuted)
	reg.Counter("arch.buffer_searches").Add(r.Arch.BufferSearches)
	reg.Counter("arch.buffer_bypasses").Add(r.Arch.BufferBypasses)
	reg.Counter("arch.buffer_hits").Add(r.Arch.BufferHits)
	reg.Counter("arch.backups").Add(r.Arch.BackupEvents)
	reg.Counter("arch.restores").Add(r.Arch.RestoreEvents)
	reg.Counter("arch.lines_backed_up").Add(r.Arch.LinesBackedUp)
	reg.Counter("arch.replayed_stores").Add(r.Arch.ReplayedStores)
	reg.Counter("arch.redone_drains").Add(r.Arch.RedoneDrains)

	// Run-phase breakdown: where the wall clock went.
	reg.Gauge("phase.total_ns").Set(float64(r.TimeNs))
	reg.Gauge("phase.run_ns").Set(float64(r.RunNs))
	reg.Gauge("phase.charge_ns").Set(float64(r.ChargeNs))
	reg.Gauge("phase.restore_ns").Set(float64(r.RestoreNs))
	reg.Gauge("phase.waw_stall_ns").Set(float64(r.Arch.WAWStallNs))
	reg.Gauge("phase.fence_stall_ns").Set(float64(r.Arch.FenceStallNs))
	reg.Gauge("phase.clwb_stall_ns").Set(float64(r.Arch.ClwbStallNs))
	reg.Gauge("phase.tp_ns").Set(float64(r.Arch.TpNs))
	reg.Gauge("phase.twait_ns").Set(float64(r.Arch.TwaitNs))

	reg.Gauge("energy.compute_j").Set(r.Ledger.Compute)
	reg.Gauge("energy.nvm_j").Set(r.Ledger.NVM)
	reg.Gauge("energy.persist_j").Set(r.Ledger.Persist)
	reg.Gauge("energy.backup_j").Set(r.Ledger.Backup)
	reg.Gauge("energy.restore_j").Set(r.Ledger.Restore)
	reg.Gauge("energy.sleep_j").Set(r.Ledger.Sleep)
	reg.Gauge("energy.total_j").Set(r.Ledger.Total())

	if r.RegionSizes != nil {
		reg.SetHistogram("region.sizes", r.RegionSizes)
	}
	if r.Arch.StoresPerRegion != nil {
		reg.SetHistogram("region.stores", r.Arch.StoresPerRegion)
	}
	return reg.Snapshot()
}

// debugOutages, enabled by setting the SIM_DEBUG environment variable,
// prints one line per power cycle (failure point, restored PC, voltage) —
// the quickest way to see a recovery protocol misbehaving.
var debugOutages = os.Getenv("SIM_DEBUG") != ""

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

// cancelPollInterval is how many engine-loop iterations (epochs, precise
// steps, or traced instructions) elapse between context polls. The poll is
// a single counter decrement on the common path, so cancellation support
// costs nothing measurable; the interval bounds cancellation latency to a
// few thousand instructions of simulated work.
const cancelPollInterval = 1024

// cancelChunkInstrs bounds one fused RunUntraced call when a context is
// attached: plain binaries (NVP) have no region delimiters, so without a
// chunk bound a single call could run the whole program and never observe
// the cancellation. The chunk is large enough that the extra call overhead
// vanishes (one call per ~1M instructions).
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

// quantV quantizes a reported voltage to 1 µV. Telemetry voltage fields
// exist for humans and plots; quantizing them makes the JSONL stream
// insensitive to ULP-level differences in capacitor state between the
// batched and precise engines, keeping their traces byte-identical.
func quantV(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// runner is one simulation run's mutable state, shared by the three
// engine loops (precise, outage-free, batched) and the power-event
// handlers so that all paths drive identical protocol code.
type runner struct {
	l      *ir.Linked
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
	// ec parameterizes the fused epoch loop (untraced harvested-power
	// runs); run-constant fields are filled once by runBatched, the
	// per-epoch fields by runEpoch.
	ec cpu.EpochControl
	// fetchFree mirrors the core's fetch elision: when set, pure-compute
	// instructions provably never enter the memory system, so scheme
	// queries (NeedsBackup) hold across them.
	fetchFree bool

	// eInstrByNs tabulates EInstr + PRun*ns*1e-9 per instruction latency,
	// pre-filled by Run for every ns below the table length (latencies
	// cluster on cycle multiples plus fixed memory costs). The table
	// converts the per-instruction float conversion and multiplies into
	// one load; each entry is the bit-exact result of the original
	// expression, so ledger totals are unchanged.
	eInstrByNs []float64

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

// pollCancel is the engine loops' cancellation check: a counter decrement
// on the common path, a context poll every cancelPollInterval calls.
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
	if opt.RegionHistMax == 0 {
		opt.RegionHistMax = 256
	}

	InitNVM(s, l)
	s.SetTracer(opt.Tracer)
	core := cpu.NewLinked(l)
	fetchFree := false
	if ff, ok := s.(cpu.FreeFetcher); ok && ff.FetchIsFree() {
		core.SetFetchFree(true)
		fetchFree = true
	}
	s.Boot(int64(l.EntryPC))

	r := &runner{
		l:         l,
		s:         s,
		ms:        s,
		opt:       opt,
		p:         p,
		core:      core,
		led:       s.Ledger(),
		cap:       energy.NewCapacitor(p.CapacitorF, p.Vmax, p.Vmax),
		tr:        opt.Tracer,
		res:       &Result{Scheme: s.Name(), RegionSizes: stats.NewHist(opt.RegionHistMax)},
		timing:    cpu.StepTiming{CycleNs: p.CycleNs, MulCycles: p.MulCycles, DivCycles: p.DivCycles},
		armed:     true,
		fetchFree: fetchFree,

		eInstrByNs: eInstrTable(p.EInstr, p.PRun),
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
	switch {
	case opt.Precise:
		err = r.runPrecise()
	case r.cursor == nil:
		err = r.runOutageFree()
	default:
		err = r.runBatched()
	}
	if err != nil {
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
	if debugOutages {
		fmt.Printf("OUTAGE %d at now=%d pc=%d executed=%d V=%.3f r0=%d\n", res.Outages, r.now, core.PC, core.Counts.Executed, cap.V(), core.Regs[0])
	}
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
	if debugOutages {
		fmt.Printf("  RESTORE -> pc=%d V=%.3f r0=%d r13=%d\n", pc, cap.V(), core.Regs[0], core.Regs[13])
	}
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
	if jit && s.NeedsBackup() {
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

// preStepEmit reports compiler-inserted checkpoint activity. Callers only
// invoke it when a tracer is attached, keeping the per-instruction switch
// off the disabled hot path.
func (r *runner) preStepEmit() {
	d := &r.l.Dec[r.core.PC]
	switch d.Class {
	case isa.ClassCkptSt:
		r.tr.Emit(telemetry.EvCkptStore, r.now, int64(d.Src2), 0, 0, 0)
	case isa.ClassSavePC:
		r.tr.Emit(telemetry.EvSavePC, r.now, d.Imm, 0, 0, 0)
	}
}

// noteRegion maintains the region-size histogram after an instruction of
// dispatch class cl retires.
func (r *runner) noteRegion(cl isa.Class) {
	if cl == isa.ClassRegionEnd || cl == isa.ClassFence {
		r.res.RegionSizes.Add(r.regionInstrs)
		r.regionInstrs = 0
	} else {
		r.regionInstrs++
	}
}

// stepPrecise retires one instruction with immediate capacitor
// settlement — the reference accounting sequence both the precise engine
// and the batched engine's near-threshold fallback execute.
func (r *runner) stepPrecise() {
	if r.tr != nil {
		r.preStepEmit()
	}
	before := r.led.Total()
	ns, cl := r.core.StepFast(r.now, r.ms, r.timing)
	r.led.Compute += r.instrEnergy(ns)
	if r.cursor != nil {
		r.cap.Add(r.cursor.Harvest(ns))
	}
	r.cap.Draw(r.led.Total() - before)
	r.now += ns
	r.res.RunNs += ns
	r.noteRegion(cl)
}

// runPrecise is the reference engine: power events checked and capacitor
// settled before/after every instruction.
func (r *runner) runPrecise() error {
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
		r.stepPrecise()
	}
	return nil
}

// instrEnergy returns the instruction's ledger charge, bit-identical to
// computing p.EInstr + p.PRun*float64(ns)*1e-9 inline (the table holds
// exactly that value, pre-filled by Run; float arithmetic is
// deterministic). The common path is one bounds test and one load.
func (r *runner) instrEnergy(ns int64) float64 {
	if ns < int64(len(r.eInstrByNs)) {
		return r.eInstrByNs[ns]
	}
	return r.p.EInstr + r.p.PRun*float64(ns)*1e-9
}

// runOutageFree is the ideal-supply engine (the Figure 5 configuration).
// With no power trace the capacitor can never cross a threshold and
// nothing observable ever reads it, so the loop carries no capacitor work
// at all. The ledger — which IS observable — is maintained with exactly
// the precise path's per-instruction arithmetic, so results stay
// byte-identical with Options.Precise.
func (r *runner) runOutageFree() error {
	core, led, tr := r.core, r.led, r.tr
	ms, timing := r.ms, r.timing
	max := r.opt.MaxInstructions
	hist := r.res.RegionSizes
	// Loop state lives in plain locals (no closure captures them, so they
	// stay in registers across the interpreter call); synced back on loop
	// exit, and before any emit, which reads r.now.
	now, runNs, ri := r.now, r.res.RunNs, r.regionInstrs
	if tr == nil {
		// No tracer: the fused interpreter loop retires whole regions per
		// call, with the identical per-instruction ledger arithmetic (the
		// traced-versus-untraced matrix test pins the equivalence). With a
		// context attached, each call is additionally capped at
		// cancelChunkInstrs so delimiter-free binaries still observe
		// cancellation; the chunk boundary only changes where the outer
		// loop re-enters, never any retired state.
		for !core.Halted {
			lim := max
			if r.ctx != nil {
				if c := core.Counts.Executed + cancelChunkInstrs; c < lim {
					lim = c
				}
				if err := r.checkCancel(); err != nil {
					r.now, r.res.RunNs, r.regionInstrs = now, runNs, ri
					return err
				}
			}
			ns, n, delim := core.RunUntraced(now, ms, timing,
				r.eInstrByNs, r.p.EInstr, r.p.PRun, &led.Compute, lim)
			now += ns
			runNs += ns
			if delim {
				hist.Add(ri + n - 1)
				ri = 0
				continue
			}
			ri += n
			if !core.Halted && core.Counts.Executed >= max {
				break // instruction budget
			}
		}
	} else {
		for !core.Halted {
			if core.Counts.Executed >= max {
				break
			}
			if err := r.pollCancel(); err != nil {
				r.now, r.res.RunNs, r.regionInstrs = now, runNs, ri
				return err
			}
			r.now = now
			r.preStepEmit()
			ns, cl := core.StepFast(now, ms, timing)
			led.Compute += r.instrEnergy(ns)
			now += ns
			runNs += ns
			if cl == isa.ClassRegionEnd || cl == isa.ClassFence {
				hist.Add(ri)
				ri = 0
			} else {
				ri++
			}
		}
	}
	r.now, r.res.RunNs, r.regionInstrs = now, runNs, ri
	if !core.Halted {
		return r.budgetErr()
	}
	return nil
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
	floor := r.cap.EnergyAt(r.p.Vmin)
	if jit {
		if eb := r.cap.EnergyAt(r.p.VBackup); eb > floor {
			floor = eb
		}
	}
	// Any fraction strictly below one keeps every pre-instruction point of
	// the epoch above the floor (the draw at each such point is below the
	// budget, and harvest only adds), so the reference engine's threshold
	// comparisons provably could not have fired — the equivalence is to
	// the precise path, independent of the fraction. 7/8 rather than 1/2
	// makes the per-discharge epoch count log_{8}, not log_{2}, and leaves
	// correspondingly fewer instructions to the precise-stepping tail once
	// the slack stops being worth an epoch.
	budget := (eNow - floor) * 0.875
	minWorthwhile := minEpochInstrs * (r.p.EInstr + r.p.PRun*float64(r.p.CycleNs)*1e-9)
	if budget <= minWorthwhile {
		return 0
	}
	return budget
}

// runEpoch retires instructions under one deferred capacitor settlement.
// The epoch closes when the ledger delta reaches the budget, when the
// next instruction might not fit in the current power-trace segment, on
// a structural backup request, on halt, or at the instruction budget.
func (r *runner) runEpoch(jit bool, budget float64) {
	core, led, tr, s := r.core, r.led, r.tr, r.s
	ms, timing := r.ms, r.timing
	ledStart := led.Total()
	segRem := r.cursor.SegmentRemaining()
	if tr == nil {
		// No tracer: one fused interpreter call retires the whole epoch
		// (the traced-versus-untraced matrix test pins the equivalence).
		// The initial backup check mirrors the per-step loop's first
		// iteration: a pending request ends the epoch before any
		// instruction retires.
		var epochNs int64
		if !(jit && s.NeedsBackup()) {
			ec := &r.ec
			ec.LedStart, ec.Budget, ec.SegRem = ledStart, budget, segRem
			ec.RegionInstrs = r.regionInstrs
			elapsed, ri := core.RunEpoch(r.now, ms, timing, ec)
			r.now += elapsed
			r.res.RunNs += elapsed
			r.regionInstrs = ri
			epochNs = elapsed
		}
		r.cap.Draw(led.Total() - ledStart)
		r.cap.Add(r.cursor.Harvest(epochNs))
		return
	}
	max := r.opt.MaxInstructions
	hist := r.res.RegionSizes
	now, runNs, ri := r.now, r.res.RunNs, r.regionInstrs
	var epochNs int64
	// NeedsBackup is an interface call per iteration, but scheme state
	// only changes across instructions that enter the memory system, so
	// the answer is re-queried only after those (or after every
	// instruction when fetches are charged — a fetch enters the scheme
	// too). Branch outcomes are identical to querying every iteration.
	needBk := jit && s.NeedsBackup()
	// cSafe is a Compute watermark below which the budget comparison is
	// provably still false, so the exact ledger fold can be skipped on
	// pure-compute instructions. Soundness: Total() is monotone
	// non-decreasing in Compute with the other fields held fixed (IEEE
	// round-to-nearest addition is monotone in each operand, and the fold
	// composes monotone steps), and the other fields can change only when
	// an instruction enters the memory system. Starting at Compute forces
	// an exact evaluation on the first instruction (energies are
	// non-negative). Whenever the budget comparison matters it is
	// evaluated with the exact original expression, so the epoch boundary
	// — and every downstream bit — is unchanged.
	cSafe := led.Compute
	for {
		if needBk {
			break
		}
		if core.Counts.Executed >= max {
			break
		}
		if tr != nil {
			r.now = now
			r.preStepEmit()
		}
		ns, cl := core.StepFast(now, ms, timing)
		led.Compute += r.instrEnergy(ns)
		now += ns
		runNs += ns
		epochNs += ns
		memTouch := !r.fetchFree || cl.TouchesMemSystem()
		if jit && memTouch {
			needBk = s.NeedsBackup()
		}
		if cl == isa.ClassRegionEnd || cl == isa.ClassFence {
			hist.Add(ri)
			ri = 0
		} else {
			ri++
		}
		if core.Halted || ns >= epochMaxInstrNs ||
			epochNs+epochMaxInstrNs >= segRem {
			break
		}
		if memTouch || led.Compute >= cSafe {
			t := led.Total()
			if t-ledStart >= budget {
				break
			}
			// Re-arm the watermark at half the remaining slack: the
			// half not granted dwarfs the rounding drift between the
			// incremental Compute adds and the fresh fold (~1e-15
			// relative), so crossing the budget while below cSafe is
			// impossible. Near the epoch's end the slack collapses and
			// the floor forces exact evaluation every instruction.
			slack := budget - (t - ledStart)
			if slack > (t+1)*1e-9 {
				cSafe = led.Compute + 0.5*slack
			} else {
				cSafe = led.Compute
			}
		}
	}
	r.now, r.res.RunNs, r.regionInstrs = now, runNs, ri
	// Settle: draw first — the epoch invariant keeps the floor distant,
	// and with the source weaker than the run draw the net flow is
	// negative, so this order can touch neither the zero floor nor the
	// Vmax clamp.
	r.cap.Draw(led.Total() - ledStart)
	r.cap.Add(r.cursor.Harvest(epochNs))
}

// runBatched is the production engine for harvested-power runs: the
// power protocol of runPrecise at every epoch boundary, with the
// per-instruction capacitor work amortized across whole epochs whenever
// the stored energy is provably far from every trigger threshold.
func (r *runner) runBatched() error {
	jit := r.s.JIT()
	if r.tr == nil {
		r.ec = cpu.EpochControl{
			EByNs:       r.eInstrByNs,
			EInstr:      r.p.EInstr,
			PRun:        r.p.PRun,
			Max:         r.opt.MaxInstructions,
			Jit:         jit,
			NeedsBackup: r.s.NeedsBackup,
			Led:         r.led,
			MaxInstrNs:  epochMaxInstrNs,
			OnRegionEnd: r.res.RegionSizes.Add,
		}
	}
	for !r.core.Halted {
		if r.core.Counts.Executed >= r.opt.MaxInstructions {
			return r.budgetErr()
		}
		if err := r.pollCancel(); err != nil {
			return err
		}
		handled, err := r.preInstrEvents()
		if err != nil {
			return err
		}
		if handled {
			continue
		}
		if budget := r.epochBudget(jit); budget > 0 {
			// An epoch retires up to millions of instructions under one
			// settlement; poll unconditionally so cancellation latency is
			// bounded by one epoch, not cancelPollInterval of them.
			if err := r.checkCancel(); err != nil {
				return err
			}
			r.runEpoch(jit, budget)
		} else {
			r.stepPrecise()
		}
	}
	return nil
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
