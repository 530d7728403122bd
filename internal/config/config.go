// Package config centralizes every simulation parameter: the Table 1
// machine configuration (voltages, latencies, capacitor, cache geometry,
// persist-buffer size, propagation delays) and the energy model constants
// the paper inherits from NVPSim.
//
// Where the paper gives a number, the default reproduces it exactly. The
// remaining energy constants were chosen once, during calibration against
// the paper's reported aggregate shapes, and are shared by every
// experiment (see DESIGN.md, "Calibration, not curve-fitting").
package config

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// Params is the full parameter set for one simulation.
type Params struct {
	// ---- core timing ----

	// CycleNs is the single-issue core's cycle time in nanoseconds. All
	// non-memory instructions take one cycle; Mul takes MulCycles and
	// Div/Rem DivCycles.
	CycleNs   int64
	MulCycles int64
	DivCycles int64

	// ---- NVM (Table 1: ReRAM, 120 ns write / 20 ns read, 16 MB) ----

	NVMSize        int64
	NVMReadNs      int64 // word-granular read latency
	NVMWriteNs     int64 // word-granular write latency
	NVMLineReadNs  int64 // 64 B line fill latency
	NVMLineWriteNs int64 // 64 B line writeback latency

	// NVPFetchNs is the instruction fetch latency of the cache-free NVP,
	// which fetches every instruction from NVM. Cache-enabled designs
	// keep the paper's NVM-technology L1I whose hit time is folded into
	// the 1-cycle base cost.
	NVPFetchNs int64

	// ---- SRAM cache (Table 1: 4 kB, 2-way) ----

	CacheSize int
	CacheWays int

	// ---- persist buffers (Section 4.5) ----

	// StoreThreshold is the persist-buffer capacity in entries and the
	// compiler's region store bound.
	StoreThreshold int
	// FlushPerLineNs is the s-phase1 per-line cost of flushing a dirty
	// cacheline into the NVM-resident buffer.
	FlushPerLineNs int64
	// DrainPerLineNs is the s-phase2 per-line cost of the DMA moving
	// buffer entries to their home NVM locations (DMA burst throughput,
	// Section 3.2).
	DrainPerLineNs int64
	// SearchPerEntryNs is the sequential buffer-search cost per entry on
	// a load miss (NVM-resident buffer, Section 4.4); SearchBaseNs is
	// charged per searched buffer even when it has no entries (reading
	// the FIFO metadata). The empty-bit variant skips empty buffers
	// entirely.
	SearchPerEntryNs int64
	SearchBaseNs     int64

	// ---- ReplayCache ----

	// ClwbQueueDepth is the number of in-flight asynchronous line
	// writebacks; a clwb with a full queue stalls.
	ClwbQueueDepth int

	// ---- voltages (Table 1) ----

	Vmax float64 // fully-charged capacitor
	Vmin float64 // brown-out: execution is impossible below this

	// VBackup is the JIT-checkpoint trigger voltage (unused by
	// SweepCache). VRestore is the reboot voltage.
	VBackup  float64
	VRestore float64

	// CapacitorF is the storage capacitance in farads (Table 1: 470 nF).
	CapacitorF float64

	// VBackupBoost raises the JIT backup threshold by this fraction of
	// the (Vmax - VBackup) headroom, modelling the safety margin that
	// capacitor degradation forces (Section 2.2). 0 disables it.
	VBackupBoost float64

	// ---- propagation delays (Table 1, Section 2.2) ----

	// BackupDelayNs (T_phl) elapses between the monitor tripping and the
	// backup starting; RestoreDelayNs (T_plh) between reaching VRestore
	// and execution resuming.
	BackupDelayNs  int64
	RestoreDelayNs int64
	// SweepRestoreDelayNs is the restore delay of SweepCache's simpler
	// single-threshold comparator (Table 1: 1.1 us; raised to 10.3 us in
	// the Figure 11a sensitivity study).
	SweepRestoreDelayNs int64

	// ---- energy model (NVPSim-style, joules) ----

	// EInstr is the core energy of one instruction's execute stage;
	// ESRAMAccess the L1D hit energy; ENVMRead/ENVMWrite word-granular
	// NVM access energies; ENVMLineRead/ENVMLineWrite 64 B transfers.
	EInstr        float64
	ESRAMAccess   float64
	ENVMRead      float64
	ENVMWrite     float64
	ENVMLineRead  float64
	ENVMLineWrite float64

	// EBackupFixed is the fixed JIT backup energy (register file to NVFF
	// with the parallel-transfer inrush the paper describes);
	// EBackupPerLine is the additional cost per cacheline backed up to
	// the NVSRAM counterpart. ERestoreFixed/ERestorePerLine are the
	// corresponding restore costs; ESweepRestore is SweepCache's much
	// lighter software restore (checkpoint-array reads).
	EBackupFixed    float64
	EBackupPerLine  float64
	ERestoreFixed   float64
	ERestorePerLine float64
	ESweepRestore   float64

	// PSleep is the drawn power while waiting for recharge (monitor +
	// leakage); PRun is the static power while running, on top of
	// per-operation energies.
	PSleep float64
	PRun   float64

	// BackupTimeNs/RestoreTimeNs are the fixed parts of JIT backup and
	// restore, plus per-line costs for cache backup schemes.
	BackupTimeNs     int64
	BackupPerLineNs  int64
	RestoreTimeNs    int64
	RestorePerLineNs int64

	// ---- NvMR (Section 6.7) ----

	// NvMRRenameCap is the number of distinct renamed lines after which
	// NvMR must take another backup to free rename resources.
	NvMRRenameCap int

	// ---- ablations ----

	// SweepSingleBuffer disables region-level parallelism: a region end
	// stalls until its own buffer finishes s-phase2, reproducing
	// Figure 3's "No Parallelism Case".
	SweepSingleBuffer bool
	// CompilerUnrollCap overrides the compiler's loop-unrolling factor
	// cap (0 = default; 1 disables unrolling).
	CompilerUnrollCap int
	// CompilerInline enables the Section 5 small-function inlining
	// optimization.
	CompilerInline bool
	// SweepVmin, when positive, overrides Vmin for SweepCache only —
	// Table 1's footnote: the simpler single-threshold comparator can
	// afford a lower brown-out voltage (the paper cites 1.8 V for an
	// extra 10-15%).
	SweepVmin float64
}

// Default returns the paper's configuration (Table 1) for the given
// scheme-independent machine; scheme-specific voltage thresholds are
// selected by the scheme constructors via the With* helpers.
func Default() Params {
	return Params{
		CycleNs:   2, // 500 MHz in-order core
		MulCycles: 3,
		DivCycles: 12,

		NVMSize:        16 << 20,
		NVMReadNs:      20,
		NVMWriteNs:     120,
		NVMLineReadNs:  40,
		NVMLineWriteNs: 120,
		NVPFetchNs:     20,

		CacheSize: 4 << 10,
		CacheWays: 2,

		StoreThreshold:   64,
		FlushPerLineNs:   10,
		DrainPerLineNs:   15,
		SearchPerEntryNs: 20,
		SearchBaseNs:     20,

		ClwbQueueDepth: 4,

		Vmax:       3.5,
		Vmin:       2.8,
		VBackup:    2.9, // NVP/ReplayCache default; NVSRAM overrides
		VRestore:   3.2,
		CapacitorF: 470e-9,

		BackupDelayNs:       1500,  // T_phl = 1.5 us
		RestoreDelayNs:      10300, // T_plh = 10.3 us
		SweepRestoreDelayNs: 1100,

		EInstr:        2e-12,
		ESRAMAccess:   1e-12,
		ENVMRead:      10e-12,
		ENVMWrite:     30e-12,
		ENVMLineRead:  20e-12,
		ENVMLineWrite: 10e-12,

		EBackupFixed:    150e-9,
		EBackupPerLine:  2e-9,
		ERestoreFixed:   60e-9,
		ERestorePerLine: 1e-9,
		ESweepRestore:   5e-9,

		PSleep: 2e-6,
		PRun:   10e-3,

		BackupTimeNs:     1000,
		BackupPerLineNs:  60,
		RestoreTimeNs:    500,
		RestorePerLineNs: 40,

		NvMRRenameCap: 16,
	}
}

// boost applies the Section 2.2 degradation margin to a JIT backup
// threshold.
func (p Params) boost() Params {
	if p.VBackupBoost > 0 {
		p.VBackup += p.VBackupBoost * (p.Vmax - p.VBackup)
		if p.VBackup >= p.VRestore {
			p.VBackup = p.VRestore - 0.05
		}
	}
	return p
}

// WithNVPThresholds returns p with the NVP/ReplayCache voltage settings
// (Table 1: backup 2.9, restore 3.2).
func (p Params) WithNVPThresholds() Params {
	p.VBackup, p.VRestore = 2.9, 3.2
	return p.boost()
}

// WithNVSRAMThresholds returns p with the NVSRAM voltage settings
// (Table 1: backup 3.2, restore 3.4 — the headroom that guarantees a
// failure-atomic whole-cache backup).
func (p Params) WithNVSRAMThresholds() Params {
	p.VBackup, p.VRestore = 3.2, 3.4
	return p.boost()
}

// WithSweepThresholds returns p with SweepCache's settings: no backup
// threshold, restore at 3.3, and the cheap single-threshold comparator's
// restore propagation delay (Table 1: 1.1 us; no backup delay).
func (p Params) WithSweepThresholds() Params {
	p.VBackup = 0 // unused: SweepCache runs down to Vmin
	p.VRestore = 3.3
	p.BackupDelayNs = 0
	p.RestoreDelayNs = p.SweepRestoreDelayNs
	if p.SweepVmin > 0 {
		p.Vmin = p.SweepVmin
	}
	return p
}

// The largest cache and store threshold Validate accepts. Building a
// scheme allocates per cache line and per threshold entry, and an
// allocation the runtime cannot satisfy kills the process instead of
// panicking, so no params set may ask for gigabytes. The figures use at
// most 16 KiB and 256.
const (
	maxCacheSize      = 1 << 20
	maxStoreThreshold = 4096
)

// minStoreThreshold is the least store threshold the Sweep compiler can
// honour: a region's boundary charges up to compiler.boundaryStores (2)
// stores of its own (save.pc, and the lr checkpoint at a function entry)
// to the ending region's buffer, on top of at least one program or
// checkpoint store.
const minStoreThreshold = 3

// Validate reports the first scheme-independent inconsistency in p as a
// descriptive error, instead of letting a malformed configuration surface
// downstream as a NaN energy ledger, a cache-geometry panic, or an
// infinite recharge loop: every scheme builds from a set Validate
// accepts. The dynamic-only failure modes — most notably a
// restore threshold at or below the brown-out voltage, which Table 1
// studies deliberately explore — stay with the engine's forward-progress
// guard (ErrNoProgress) rather than being rejected here.
func (p Params) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Vmax", p.Vmax}, {"Vmin", p.Vmin}, {"VBackup", p.VBackup},
		{"VRestore", p.VRestore}, {"CapacitorF", p.CapacitorF},
		{"VBackupBoost", p.VBackupBoost}, {"SweepVmin", p.SweepVmin},
		{"EInstr", p.EInstr}, {"ESRAMAccess", p.ESRAMAccess},
		{"ENVMRead", p.ENVMRead}, {"ENVMWrite", p.ENVMWrite},
		{"ENVMLineRead", p.ENVMLineRead}, {"ENVMLineWrite", p.ENVMLineWrite},
		{"EBackupFixed", p.EBackupFixed}, {"EBackupPerLine", p.EBackupPerLine},
		{"ERestoreFixed", p.ERestoreFixed}, {"ERestorePerLine", p.ERestorePerLine},
		{"ESweepRestore", p.ESweepRestore}, {"PSleep", p.PSleep}, {"PRun", p.PRun},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("config: %s is %v — every energy/voltage parameter must be finite", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("config: %s is negative (%v)", f.name, f.v)
		}
	}
	if p.CapacitorF <= 0 {
		return fmt.Errorf("config: non-positive capacitor size %v F — the energy buffer must store something", p.CapacitorF)
	}
	if p.Vmax <= 0 || p.Vmin <= 0 {
		return fmt.Errorf("config: voltages must be positive (Vmax %v, Vmin %v)", p.Vmax, p.Vmin)
	}
	if p.Vmax <= p.Vmin {
		return fmt.Errorf("config: Vmax %v must exceed Vmin %v — no usable energy window", p.Vmax, p.Vmin)
	}
	if p.VRestore > p.Vmax {
		return fmt.Errorf("config: VRestore %v above Vmax %v — the capacitor can never reach the restore threshold", p.VRestore, p.Vmax)
	}
	if p.PRun <= 0 {
		return fmt.Errorf("config: non-positive run power %v W", p.PRun)
	}
	if p.CycleNs <= 0 || p.MulCycles <= 0 || p.DivCycles <= 0 {
		return fmt.Errorf("config: core timing must be positive (CycleNs %d, MulCycles %d, DivCycles %d)",
			p.CycleNs, p.MulCycles, p.DivCycles)
	}
	if p.NVMSize <= 0 {
		return fmt.Errorf("config: non-positive NVM size %d", p.NVMSize)
	}
	if p.NVMReadNs < 0 || p.NVMWriteNs < 0 || p.NVMLineReadNs < 0 || p.NVMLineWriteNs < 0 || p.NVPFetchNs < 0 {
		return fmt.Errorf("config: negative NVM latency")
	}
	if p.BackupDelayNs < 0 || p.RestoreDelayNs < 0 || p.SweepRestoreDelayNs < 0 {
		return fmt.Errorf("config: negative propagation delay")
	}
	if p.BackupTimeNs < 0 || p.BackupPerLineNs < 0 || p.RestoreTimeNs < 0 || p.RestorePerLineNs < 0 {
		return fmt.Errorf("config: negative backup/restore time")
	}
	if p.CacheSize <= 0 || p.CacheWays <= 0 {
		return fmt.Errorf("config: cache geometry must be positive (size %d, ways %d)", p.CacheSize, p.CacheWays)
	}
	if p.CacheSize > maxCacheSize {
		return fmt.Errorf("config: cache size %d above %d B", p.CacheSize, maxCacheSize)
	}
	if p.CacheSize/64 < p.CacheWays {
		return fmt.Errorf("config: cache size %d below one 64 B line per way (%d ways)", p.CacheSize, p.CacheWays)
	}
	if sets := p.CacheSize / 64 / p.CacheWays; sets&(sets-1) != 0 {
		return fmt.Errorf("config: cache of %d B in %d ways has %d sets, not a power of two", p.CacheSize, p.CacheWays, sets)
	}
	if p.StoreThreshold < minStoreThreshold {
		return fmt.Errorf("config: store threshold %d below %d entries — a region's boundary stores need room beside its own", p.StoreThreshold, minStoreThreshold)
	}
	if p.StoreThreshold > maxStoreThreshold {
		return fmt.Errorf("config: store threshold %d above %d entries", p.StoreThreshold, maxStoreThreshold)
	}
	if p.ClwbQueueDepth <= 0 {
		return fmt.Errorf("config: non-positive clwb queue depth %d", p.ClwbQueueDepth)
	}
	if p.NvMRRenameCap <= 0 {
		return fmt.Errorf("config: non-positive NvMR rename capacity %d", p.NvMRRenameCap)
	}
	return nil
}

// ValidateJIT layers the JIT-checkpoint threshold ordering on top of
// Validate: a backup trigger at or below the brown-out voltage can never
// fire before state is lost, and one at or above the restore threshold
// fires the instant execution resumes. Only meaningful for schemes that
// JIT-checkpoint under harvested power; SweepCache runs with VBackup 0.
func (p Params) ValidateJIT() error {
	if p.VBackup <= p.Vmin {
		return fmt.Errorf("config: VBackup %v at or below Vmin %v — the JIT backup would fire after brown-out", p.VBackup, p.Vmin)
	}
	if p.VBackup >= p.VRestore {
		return fmt.Errorf("config: VBackup %v at or above VRestore %v — execution would re-backup immediately on restore", p.VBackup, p.VRestore)
	}
	return nil
}

// FromJSON decodes a partial parameter override on top of Default() and
// validates the merged result: absent fields keep their Table 1 values,
// unknown fields are an error, and a decoded set that fails Validate is
// rejected here rather than mid-experiment. This is the `-params file`
// path of cmd/sweepsim and cmd/sweepexp.
func FromJSON(data []byte) (Params, error) {
	p := Default()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("config: decode params: %w", err)
	}
	// Trailing garbage after the object is malformed input, not silence.
	if dec.More() {
		return Params{}, fmt.Errorf("config: trailing data after params object")
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Fingerprint returns a short stable content hash over every field of p.
// Two parameter sets share a fingerprint exactly when every field matches
// bit for bit (Go renders floats in shortest round-trip form), which is
// what keys journalled experiment cells to their configuration.
func (p Params) Fingerprint() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%#v", p)))
	return hex.EncodeToString(h[:16])
}
