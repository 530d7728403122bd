// Package arch implements the seven machines the evaluation compares
// (Figure 1 plus Section 6.7):
//
//	NVP        cache-free nonvolatile processor, JIT register checkpointing
//	WT-VCache  volatile write-through cache, JIT register checkpointing
//	NVSRAM     volatile write-back cache, JIT backup of dirty lines
//	NVSRAM-E   as NVSRAM but backs up the entire cache
//	ReplayCache  write-back cache, clwb per store + fence per region,
//	             store replay at recovery
//	SweepCache   region-level persistence through dual NVM persist buffers
//	             (variants: NVM Search and Empty-Bit Search)
//	NvMR       memory renaming; keeps executing after the JIT backup
//
// Each scheme is a cpu.MemSystem plus a crash/recovery protocol. All state
// is functional: power failure genuinely destroys volatile contents, and
// recovery genuinely reconstructs them, so crash consistency is checked,
// not assumed.
//
// Every scheme embeds base, which is NVP's machine plus the cache: the
// scheme's identity, the JIT register checkpoint (Boot, Backup, Restore),
// a power failure that loses the cache, and a Finalize that drains its
// dirty lines. A scheme overrides only what it changes: its memory paths,
// and for the write-back schemes the extra state their recovery protocol
// saves or replays.
package arch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Kind names a scheme.
type Kind int

const (
	NVP Kind = iota
	WTVCache
	NVSRAM
	NVSRAME
	ReplayCache
	SweepNVMSearch
	SweepEmptyBit
	NvMR
)

var kindNames = map[Kind]string{
	NVP: "NVP", WTVCache: "WT-VCache", NVSRAM: "NVSRAM", NVSRAME: "NVSRAM-E",
	ReplayCache: "ReplayCache", SweepNVMSearch: "Sweep-NVMSearch",
	SweepEmptyBit: "Sweep-EmptyBit", NvMR: "NvMR",
}

func (k Kind) String() string { return kindNames[k] }

// CompilerMode returns the compilation mode the scheme's binary needs.
// The import-free int mirrors compiler.Mode (0 plain, 1 sweep, 2 replay)
// to keep arch independent of the compiler package.
func (k Kind) CompilerMode() int {
	switch k {
	case SweepNVMSearch, SweepEmptyBit:
		return 1
	case ReplayCache:
		return 2
	}
	return 0
}

// Stats collects scheme-level counters beyond the CPU's instruction counts.
// The tags are part of the durable record format (see sim.Result).
type Stats struct {
	// Region-level parallelism accounting (Section 6.3): TpNs is the
	// persistence latency without parallelism, TwaitNs the actual wait.
	TpNs    int64 `json:"tp_ns"`
	TwaitNs int64 `json:"twait_ns"`

	RegionsExecuted uint64 `json:"regions"`
	// StoresPerRegion samples the dynamic store count of each executed
	// region (Figure 12b).
	StoresPerRegion *stats.Hist `json:"stores_per_region,omitempty"`

	// Persist-buffer search behaviour (Section 4.4).
	BufferSearches uint64 `json:"buffer_searches"` // searches actually performed
	BufferBypasses uint64 `json:"buffer_bypasses"` // searches skipped thanks to the empty-bit
	BufferHits     uint64 `json:"buffer_hits"`     // misses served from a buffer

	WAWStallNs   int64 `json:"waw_stall_ns"` // Section 4.3 stalls
	FenceStallNs int64 `json:"fence_stall_ns"`
	ClwbStallNs  int64 `json:"clwb_stall_ns"`

	BackupEvents   uint64 `json:"backups"`
	RestoreEvents  uint64 `json:"restores"`
	LinesBackedUp  uint64 `json:"lines_backed_up"`
	ReplayedStores uint64 `json:"replayed_stores"`
	RedoneDrains   uint64 `json:"redone_drains"`
}

// base carries the plumbing every scheme shares. tr is nil unless the
// engine attached a tracer — emitting on a nil tracer is a no-op, so the
// schemes' event sites cost one branch when telemetry is off.
type base struct {
	kind Kind
	p    config.Params
	nvm  *mem.NVM
	led  *energy.Ledger
	st   Stats
	tr   *telemetry.Tracer
	// c is the L1D model; nil for the cache-free NVP.
	c *cache.Cache

	// The JIT register checkpoint, held in NVFF.
	snapRegs cpu.Regs
	snapPC   int64
}

func newBase(kind Kind, p config.Params) base {
	b := base{
		kind: kind,
		p:    p,
		nvm:  mem.New(p.NVMSize),
		led:  &energy.Ledger{},
		st:   Stats{StoresPerRegion: stats.NewHist(p.StoreThreshold + 1)},
	}
	if kind != NVP {
		b.c = cache.New(p.CacheSize, p.CacheWays)
	}
	return b
}

func (b *base) Name() string           { return b.kind.String() }
func (b *base) Kind() Kind             { return b.kind }
func (b *base) JIT() bool              { return true }
func (b *base) Cache() *cache.Cache    { return b.c }
func (b *base) NVM() *mem.NVM          { return b.nvm }
func (b *base) Ledger() *energy.Ledger { return b.led }
func (b *base) Stats() *Stats          { return &b.st }
func (b *base) Params() config.Params  { return b.p }

// SetTracer attaches (or detaches, with nil) the telemetry tracer.
func (b *base) SetTracer(tr *telemetry.Tracer) { b.tr = tr }
func (b *base) Sync(now int64)                 {}
func (b *base) Fetch(now int64) cpu.Cost       { return cpu.Cost{} }

// FetchIsFree declares the no-op Fetch above to the interpreter (see
// cpu.FreeFetcher); schemes that charge per-fetch costs must override
// both Fetch and this.
func (b *base) FetchIsFree() bool { return true }
func (b *base) RegionEnd(now int64) cpu.Cost {
	panic("arch: region.end executed on a plain-compiled scheme")
}
func (b *base) Clwb(now int64, addr int64) cpu.Cost {
	panic("arch: clwb executed on a non-replay scheme")
}
func (b *base) Fence(now int64) cpu.Cost {
	panic("arch: fence executed on a non-replay scheme")
}
func (b *base) ContinuesAfterBackup() bool { return false }

// Boot primes the JIT snapshot with the program entry so a failure before
// the first backup restarts from the beginning.
func (b *base) Boot(entryPC int64) {
	b.snapPC = entryPC
	b.snapRegs = cpu.Regs{}
}

// Backup checkpoints the register file and PC.
func (b *base) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	b.snapRegs = *regs
	b.snapPC = pc
	b.led.Backup += b.p.EBackupFixed
	b.st.BackupEvents++
	return cpu.Cost{Ns: b.p.BackupTimeNs}
}

// PowerFail loses the volatile cache, if there is one.
func (b *base) PowerFail(now int64) {
	if b.c != nil {
		b.c.Invalidate()
	}
}

// Restore reloads the register file and returns the checkpointed PC.
func (b *base) Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost) {
	*regs = b.snapRegs
	b.led.Restore += b.p.ERestoreFixed
	b.st.RestoreEvents++
	return b.snapPC, cpu.Cost{Ns: b.p.RestoreTimeNs}
}

// Finalize writes every dirty line to NVM uncounted.
func (b *base) Finalize() {
	if b.c == nil {
		return
	}
	for _, slot := range b.c.DirtySlots(nil) {
		b.nvm.PokeLine(b.c.Tag(slot), b.c.Data(slot))
		b.c.ClearDirty(slot)
	}
}

// read returns the word (or zero-extended byte) at addr from the line
// resident in slot.
func (b *base) read(slot int, addr int64, byteWide bool) int64 {
	if byteWide {
		return int64(b.c.ByteAt(slot, addr))
	}
	return b.c.ReadWord(slot, addr)
}

// write stores the word (or the low byte of val) at addr into the line
// resident in slot; the caller marks dirtiness per its policy.
func (b *base) write(slot int, addr int64, val int64, byteWide bool) {
	if byteWide {
		b.c.SetByte(slot, addr, byte(val))
	} else {
		b.c.WriteWord(slot, addr, val)
	}
}

// Scheme is one complete machine.
type Scheme interface {
	cpu.MemSystem
	Name() string
	Kind() Kind
	// JIT reports whether the scheme checkpoints just-in-time: the
	// engine triggers Backup when the voltage falls to VBackup. Non-JIT
	// schemes (SweepCache) run down to Vmin and lose everything.
	JIT() bool
	// ContinuesAfterBackup reports NvMR's defining property: execution
	// proceeds past the backup instead of halting until VRestore.
	ContinuesAfterBackup() bool
	// Boot primes the recovery state with the program entry point, so a
	// failure before the first backup restarts the program.
	Boot(entryPC int64)
	// Backup checkpoints volatile state (JIT schemes only).
	Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost
	// PowerFail destroys volatile state at the moment of the outage.
	PowerFail(now int64)
	// Restore rebuilds state after recharge; returns the resume PC.
	Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost)
	// Sync applies background completions (buffer drains, clwb queue)
	// up to now.
	Sync(now int64)
	// Finalize makes the final NVM image observable at program halt:
	// volatile write-back state still in flight (dirty lines, buffers,
	// queues) is drained without cost accounting, so differential tests
	// can compare memory images across schemes.
	Finalize()

	NVM() *mem.NVM
	Ledger() *energy.Ledger
	Stats() *Stats
	Params() config.Params
	// Cache returns the L1D model, or nil for the cache-free NVP.
	Cache() *cache.Cache
	// SetTracer attaches the telemetry tracer the scheme emits events
	// to; nil (the default) disables scheme-level events.
	SetTracer(tr *telemetry.Tracer)
}

// Params returns the parameters a scheme of kind k runs with: p under
// the kind's Table 1 voltage thresholds, with every field the kind never
// reads reset to its config.Default value. Two parameter sets with the
// same Params therefore build machines, and compile binaries, that
// simulate identically, which is what lets an experiment serve one cell
// from another's record.
//
// The resets cover exactly the fields a figure sweeps on a kind that
// ignores them: the cache geometry on the cache-free NVP, and the three
// SweepCache-only knobs and the two compile knobs only the sweep-mode
// compiler reads (the unroll cap and inlining) on every other kind.
// StoreThreshold stays for every kind: every scheme sizes its
// stores-per-region histogram from it.
// VBackupBoost stays, since the JIT threshold is re-derived from it, so
// Params is idempotent.
func (k Kind) Params(p config.Params) config.Params {
	p = k.thresholds(p)
	d := config.Default()
	if k == NVP {
		p.CacheSize, p.CacheWays = d.CacheSize, d.CacheWays
	}
	if k != SweepNVMSearch && k != SweepEmptyBit {
		p.SweepRestoreDelayNs, p.SweepVmin, p.SweepSingleBuffer = d.SweepRestoreDelayNs, d.SweepVmin, d.SweepSingleBuffer
		p.CompilerUnrollCap, p.CompilerInline = d.CompilerUnrollCap, d.CompilerInline
	}
	return p
}

// OutageFreeParams returns the parameters an outage-free run of kind k
// reads: Params(p) with the supply fields the figures sweep reset to
// Params(config.Default())'s values. With no power trace the engine never
// compares a voltage, never charges the capacitor, and never backs up or
// restores, so it reads none of the capacitor, the backup and brown-out
// thresholds (and the degradation boost that raises one), or the
// propagation delays. Two parameter sets with the same OutageFreeParams
// run outage-free to the same record. Every other field stays; PRun in
// particular, since every instruction's charge reads it.
func (k Kind) OutageFreeParams(p config.Params) config.Params {
	p, d := k.Params(p), k.Params(config.Default())
	p.CapacitorF = d.CapacitorF
	p.VBackupBoost, p.VBackup = d.VBackupBoost, d.VBackup
	p.BackupDelayNs, p.RestoreDelayNs, p.SweepRestoreDelayNs = d.BackupDelayNs, d.RestoreDelayNs, d.SweepRestoreDelayNs
	p.SweepVmin, p.Vmin = d.SweepVmin, d.Vmin
	return p
}

// thresholds applies the kind's Table 1 voltage thresholds to p.
func (k Kind) thresholds(p config.Params) config.Params {
	switch k {
	case NVSRAM, NVSRAME:
		return p.WithNVSRAMThresholds()
	case SweepNVMSearch, SweepEmptyBit:
		return p.WithSweepThresholds()
	}
	return p.WithNVPThresholds()
}

// New constructs the scheme for kind, running with kind.Params(p).
func New(kind Kind, p config.Params) Scheme {
	return build(kind, kind.Params(p))
}

// build constructs the scheme for kind running with exactly p.
func build(kind Kind, p config.Params) Scheme {
	switch kind {
	case NVP:
		return &nvp{newBase(kind, p)}
	case WTVCache:
		return &wt{newBase(kind, p)}
	case NVSRAM, NVSRAME:
		return newNVSRAM(kind, p)
	case ReplayCache:
		return &replay{base: newBase(kind, p)}
	case SweepNVMSearch, SweepEmptyBit:
		return newSweep(kind, p)
	case NvMR:
		return newNvMR(p)
	}
	panic("arch: unknown kind")
}

// AllKinds lists every scheme in presentation order.
func AllKinds() []Kind {
	return []Kind{NVP, WTVCache, NVSRAM, NVSRAME, ReplayCache, SweepNVMSearch, SweepEmptyBit, NvMR}
}

// ParseKind resolves a scheme name (its String form, e.g.
// "Sweep-EmptyBit") back to its Kind. The service boundary parses
// client-supplied names through this, so the accepted vocabulary is
// exactly the presentation names the figures print.
func ParseKind(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return k, true
		}
	}
	return 0, false
}

// EvalKinds lists the schemes of the headline figures (Figures 5–7).
func EvalKinds() []Kind {
	return []Kind{ReplayCache, NVSRAM, SweepNVMSearch, SweepEmptyBit}
}
