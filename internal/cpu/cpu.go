// Package cpu implements the single-issue in-order core: an interpreter
// over isa code with per-instruction latency accounting. All memory
// behaviour — caches, persist buffers, NVM, persistence stalls — is behind
// the MemSystem interface that each architecture scheme implements.
//
// Energy is not returned: Run adds each instruction's charge to the shared
// ledger, schemes attribute their own energy to it directly, and the
// engine draws ledger deltas from the capacitor (see internal/sim).
package cpu

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/telemetry"
)

// Regs is the architectural register file.
type Regs [isa.NumRegs]int64

// Cost is the time cost of an operation in nanoseconds.
type Cost struct {
	Ns int64
}

// Add accumulates another cost.
func (c *Cost) Add(o Cost) { c.Ns += o.Ns }

// MemSystem is the per-scheme memory hierarchy. now is the current
// simulation time; implementations use it to resolve persistence stalls
// and background completions.
type MemSystem interface {
	// Fetch charges the instruction-fetch cost beyond the 1-cycle base
	// (only the cache-free NVP pays NVM latency here).
	Fetch(now int64) Cost
	// Load reads a word (or a zero-extended byte) from addr.
	Load(now int64, addr int64, byteWide bool) (int64, Cost)
	// Store writes a word (or the low byte of val) to addr.
	Store(now int64, addr int64, val int64, byteWide bool) Cost
	// RegionEnd runs the SweepCache region-boundary protocol; other
	// schemes never see it.
	RegionEnd(now int64) Cost
	// Clwb writes back the line containing addr (ReplayCache).
	Clwb(now int64, addr int64) Cost
	// Fence drains outstanding writebacks (ReplayCache).
	Fence(now int64) Cost
}

// Counts tallies dynamically executed instructions by class.
type Counts struct {
	Executed   uint64
	Loads      uint64
	Stores     uint64 // plain stores only
	CkptStores uint64
	SavePCs    uint64
	RegionEnds uint64
	Clwbs      uint64
	Fences     uint64
	Calls      uint64
	Branches   uint64
}

// CPU is the architectural core state.
type CPU struct {
	Regs   Regs
	PC     int64
	Code   []isa.Instr
	Halted bool
	Counts Counts

	// dec is the predecoded dispatch table, position-matched to Code.
	dec []isa.Decoded
	// fetchFree elides the per-instruction ms.Fetch call for memory
	// systems that declare it cost- and effect-free (see FreeFetcher).
	fetchFree bool
}

// FreeFetcher is an optional MemSystem capability: implementations whose
// Fetch never charges time or energy and has no side effects return true,
// and the interpreter drops the call from the per-instruction path. The
// cache-free NVP pays NVM latency on every fetch and must return false.
type FreeFetcher interface {
	FetchIsFree() bool
}

// SetFetchFree configures fetch elision; callers must only enable it for
// a memory system whose Fetch is a no-op.
func (c *CPU) SetFetchFree(free bool) { c.fetchFree = free }

// New returns a core ready to run code from entryPC, predecoding the
// dispatch table itself.
func New(code []isa.Instr, entryPC int64) *CPU {
	return NewPredecoded(code, isa.Predecode(code), entryPC)
}

// NewPredecoded returns a core over an already-predecoded program (the
// linker decodes once; the compile cache shares the table across runs).
// dec must be position-matched to code.
func NewPredecoded(code []isa.Instr, dec []isa.Decoded, entryPC int64) *CPU {
	if len(dec) != len(code) {
		panic(fmt.Sprintf("cpu: decode table length %d != code length %d", len(dec), len(code)))
	}
	return &CPU{Code: code, dec: dec, PC: entryPC}
}

// NewLinked returns a core for a linked program, reusing its link-time
// decode table.
func NewLinked(l *ir.Linked) *CPU {
	return NewPredecoded(l.Code, l.Dec, int64(l.EntryPC))
}

// StepTiming carries the per-op latencies the core itself owns.
type StepTiming struct {
	CycleNs   int64
	MulCycles int64
	DivCycles int64
}

// Step executes the instruction at PC against ms and returns its time
// cost: a one-instruction Run with no other stop rule, charging a scratch
// ledger. A halted core does nothing. It panics on malformed code (the
// linker guarantees well-formed programs).
func (c *CPU) Step(now int64, ms MemSystem, t StepTiming) Cost {
	var led energy.Ledger
	ns, _ := c.Run(now, ms, t, &Control{
		Led:         &led,
		Max:         c.Counts.Executed + 1,
		Budget:      math.Inf(1),
		SegDeadline: math.MaxInt64,
		MaxInstrNs:  math.MaxInt64,
	})
	return Cost{Ns: ns}
}

// Control parameterizes one Run call: the per-instruction ledger charge,
// the sinks, and the stop rules. Budget = +Inf and SegDeadline =
// MaxInstrNs = math.MaxInt64 mean "no bound"; a nil NeedsBackup means no
// structural-backup queries (only NvMR wires one).
type Control struct {
	// The per-instruction ledger charge added to Led.Compute: EByNs[ns]
	// when ns indexes the table, else EInstr + PRun*ns*1e-9.
	EByNs  []float64
	EInstr float64
	PRun   float64
	Led    *energy.Ledger

	// Stop rules, each tested after an instruction retires.
	Max         uint64      // stop once Counts.Executed reaches Max
	LedStart    float64     // ledger total the budget is measured from
	Budget      float64     // stop once Led.Total()-LedStart >= Budget
	SegDeadline int64       // stop once the clock reaches this absolute time
	MaxInstrNs  int64       // stop after an instruction at least this long
	NeedsBackup func() bool // stop after a memory-system instruction when true

	RegionInstrs int               // running region length, carried across calls
	OnRegionEnd  func(int)         // region-size sink; nil discards
	Tracer       *telemetry.Tracer // checkpoint-store and save-PC events; nil disables

	// nonComputeSafe is the budgeted call's second watermark, on
	// Led.NonCompute(); Run's local cSafe is the first, on Compute. The
	// first exact comparison of a budgeted call arms it, and no stop of
	// an unbudgeted call depends on it.
	nonComputeSafe float64
}

// What Run checks after an instruction retires. The choice is a per-class
// table fixed for the whole call, so the common case costs one load and
// one compare.
const (
	tailSkip  uint8 = iota // nothing: no stop rule can fire
	tailShort              // latency, deadline and Compute-watermark compares
	tailMem                // the backup query, both watermarks, then the short compares
	tailLong               // region end and halt, then what tailMem does
)

// tailTable returns the class's tail for a call that is checked (carries
// a budget, deadline, latency bound or backup query) or not, on a core
// whose fetches are free or charged. Delimiters and halt always take the
// long tail. An unchecked call skips everything else. A checked call
// gives pure-compute classes the short tail and the rest the mem tail: a
// memory-system call can charge ledger fields the Compute watermark does
// not bound, and can raise a backup request. A charged fetch enters the
// memory system on every instruction.
func tailTable(checked, fetchFree bool) (t [isa.NumClasses]uint8) {
	for cl := range t {
		f := isa.ClassFlags[cl]
		switch {
		case f&(isa.FlagDelim|isa.FlagHalt) != 0:
			t[cl] = tailLong
		case !checked:
			t[cl] = tailSkip
		case f&isa.FlagMemSystem != 0 || !fetchFree:
			t[cl] = tailMem
		default:
			t[cl] = tailShort
		}
	}
	return t
}

var (
	tailUnchecked      = tailTable(false, true)
	tailChecked        = tailTable(true, true)
	tailCheckedCharged = tailTable(true, false)
)

// slowTail finishes an instruction whose tail needs more than Run's
// inline compares: every long tail, a mem tail when a backup query is
// wired, and any instruction that crossed a watermark. The long tail
// reports a region end and stops the call on halt; the long and mem tails
// then stop it on a backup request, and go on without a fold in an
// unbudgeted call or below both watermarks. Otherwise the budget
// comparison runs with its exact expression, and when the call may go on
// slowTail re-arms both watermarks, a quarter of the remaining slack
// above their current values each, and returns the Compute one. Once the
// slack is down to rounding noise it returns comp itself, which every
// later instruction reaches (no charge is negative), so each of them
// folds. Kept out of line, its state and constants hold no registers
// across Run's loop.
func (ctl *Control) slowTail(k uint8, cl isa.Class, executed uint64, comp, cSafe float64, regionBase *uint64) (bool, float64) {
	if k == tailLong {
		if isa.ClassFlags[cl]&isa.FlagDelim != 0 {
			if ctl.OnRegionEnd != nil {
				ctl.OnRegionEnd(int(executed - 1 - *regionBase))
			}
			*regionBase = executed
		}
		if cl == isa.ClassHalt {
			return true, cSafe
		}
	}
	if k >= tailMem {
		if ctl.NeedsBackup != nil && ctl.NeedsBackup() {
			return true, cSafe
		}
		if ctl.Budget == math.Inf(1) || comp < cSafe && ctl.Led.NonCompute() < ctl.nonComputeSafe {
			return false, cSafe
		}
	}
	ctl.Led.Compute = comp // the fold reads the live ledger field
	tt := ctl.Led.Total()
	if tt-ctl.LedStart >= ctl.Budget {
		return true, cSafe
	}
	slack := ctl.Budget - (tt - ctl.LedStart)
	if slack > (tt+1)*1e-9 {
		ctl.nonComputeSafe = ctl.Led.NonCompute() + 0.25*slack
		return false, comp + 0.25*slack
	}
	return false, comp
}

// Run is the interpreter: it retires instructions back to back, with PC
// and the executed counter in locals, until a stop rule in ctl fires or
// the core halts. It returns the elapsed time and the running region
// length. Every region end (region-end or fence instruction) passes the
// region's length to ctl.OnRegionEnd.
//
// After each instruction Run adds the ledger charge to Led.Compute. The
// budget comparison Total()-LedStart >= Budget is evaluated with that
// exact expression whenever it can matter, and skipped while Compute and
// Led.NonCompute() are both below their watermarks, which cannot change
// its outcome. Every charge is non-negative (config.Validate rejects
// negative energies), and Total() and NonCompute() are monotone
// non-decreasing in each field (IEEE round-to-nearest addition is
// monotone in each operand, and a fold composes monotone steps). After
// an exact comparison that says "continue" with slack s, each watermark
// is re-armed a quarter of s above its current value, so below both the
// fold stays under its last value plus s/2: the half not granted dwarfs
// the ~1e-15 relative drift between incremental adds and a fresh fold.
// Only a memory-system call changes a field other than Compute, so a
// pure-compute instruction compares Compute alone and a memory-system
// one both. Near the budget the slack collapses and the comparison runs
// on every instruction.
//
// Run on a halted core does nothing.
func (c *CPU) Run(now int64, ms MemSystem, t StepTiming, ctl *Control) (elapsed int64, regionInstrs int) {
	if c.Halted {
		return 0, ctl.RegionInstrs
	}
	pc := c.PC
	executed := c.Counts.Executed
	// Only what every instruction touches lives in locals. The stop rules
	// and sinks are read through ctl where they are tested: every value
	// held in a register across the loop is one more move on each
	// back-edge, and the skip tail's back-edge is the hot one.
	dec := c.dec
	compute := &ctl.Led.Compute
	hasBudget := ctl.Budget < math.Inf(1)
	tail := &tailUnchecked
	if hasBudget || ctl.SegDeadline != math.MaxInt64 || ctl.MaxInstrNs != math.MaxInt64 || ctl.NeedsBackup != nil {
		tail = &tailChecked
		if !c.fetchFree {
			tail = &tailCheckedCharged
		}
	}
	// The running region length is executed-regionBase, so only a
	// delimiter touches it.
	regionBase := executed - uint64(ctl.RegionInstrs)
	// comp shadows *compute in a register, synced around every ms call
	// (the only other writer) and before every Total() fold (the only
	// other reader), so the float-add sequence it receives is unchanged.
	comp := *compute
	cSafe := comp // the first checked instruction folds, arming both watermarks
	if !hasBudget {
		cSafe = math.Inf(1)
	}
	// now is the only clock accumulator: elapsed is now-start.
	start := now
	for executed < ctl.Max {
		d := &dec[pc]
		ns := t.CycleNs
		if !c.fetchFree {
			*compute = comp
			ns += ms.Fetch(now).Ns
			comp = *compute
		}
		next := pc + 1
		executed++

		switch d.Class {
		case isa.ClassNop:

		case isa.ClassAdd:
			c.Regs[d.Dst] = c.Regs[d.Src1] + c.Regs[d.Src2]
		case isa.ClassSub:
			c.Regs[d.Dst] = c.Regs[d.Src1] - c.Regs[d.Src2]
		case isa.ClassAnd:
			c.Regs[d.Dst] = c.Regs[d.Src1] & c.Regs[d.Src2]
		case isa.ClassOr:
			c.Regs[d.Dst] = c.Regs[d.Src1] | c.Regs[d.Src2]
		case isa.ClassXor:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ c.Regs[d.Src2]
		case isa.ClassAddI:
			c.Regs[d.Dst] = c.Regs[d.Src1] + d.Imm
		case isa.ClassAndI:
			c.Regs[d.Dst] = c.Regs[d.Src1] & d.Imm
		case isa.ClassOrI:
			c.Regs[d.Dst] = c.Regs[d.Src1] | d.Imm
		case isa.ClassXorI:
			c.Regs[d.Dst] = c.Regs[d.Src1] ^ d.Imm
		case isa.ClassALURR:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
		case isa.ClassALURRMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassALURRDiv:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], c.Regs[d.Src2])
			ns += (t.DivCycles - 1) * t.CycleNs
		case isa.ClassALURI:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
		case isa.ClassALURIMul:
			c.Regs[d.Dst] = isa.EvalALU(d.Op, c.Regs[d.Src1], d.Imm)
			ns += (t.MulCycles - 1) * t.CycleNs
		case isa.ClassMovI:
			c.Regs[d.Dst] = d.Imm
		case isa.ClassMov:
			c.Regs[d.Dst] = c.Regs[d.Src1]

		case isa.ClassLd:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, false)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassLdB:
			c.Counts.Loads++
			*compute = comp
			v, mc := ms.Load(now+ns, c.Regs[d.Src1]+d.Imm, true)
			comp = *compute
			c.Regs[d.Dst] = v
			ns += mc.Ns
		case isa.ClassSt:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassStB:
			c.Counts.Stores++
			*compute = comp
			mc := ms.Store(now+ns, c.Regs[d.Src1]+d.Imm, c.Regs[d.Src2], true)
			comp = *compute
			ns += mc.Ns

		case isa.ClassBeq:
			c.Counts.Branches++
			if c.Regs[d.Src1] == c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBne:
			c.Counts.Branches++
			if c.Regs[d.Src1] != c.Regs[d.Src2] {
				next = int64(d.Target)
			}
		case isa.ClassBranch:
			c.Counts.Branches++
			if isa.BranchTaken(d.Op, c.Regs[d.Src1], c.Regs[d.Src2]) {
				next = int64(d.Target)
			}
		case isa.ClassJmp:
			next = int64(d.Target)
		case isa.ClassCall:
			c.Counts.Calls++
			c.Regs[isa.LR] = pc + 1
			next = int64(d.Target)
		case isa.ClassRet:
			next = c.Regs[isa.LR]
		case isa.ClassHalt:
			c.Halted = true
			next = pc

		// The two checkpoint events carry the instruction's start time
		// and precede the store's own scheme events.
		case isa.ClassCkptSt:
			c.Counts.CkptStores++
			if tr := ctl.Tracer; tr != nil {
				tr.Emit(telemetry.EvCkptStore, now, int64(d.Src2), 0, 0, 0)
			}
			*compute = comp
			mc := ms.Store(now+ns, ir.CkptSlotAddr(d.Src2), c.Regs[d.Src2], false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassSavePC:
			c.Counts.SavePCs++
			if tr := ctl.Tracer; tr != nil {
				tr.Emit(telemetry.EvSavePC, now, d.Imm, 0, 0, 0)
			}
			*compute = comp
			mc := ms.Store(now+ns, ir.PCSlotAddr, d.Imm, false)
			comp = *compute
			ns += mc.Ns
		case isa.ClassRegionEnd:
			c.Counts.RegionEnds++
			*compute = comp
			mc := ms.RegionEnd(now + ns)
			comp = *compute
			ns += mc.Ns
		case isa.ClassClwb:
			c.Counts.Clwbs++
			*compute = comp
			mc := ms.Clwb(now+ns, c.Regs[d.Src1]+d.Imm)
			comp = *compute
			ns += mc.Ns
		case isa.ClassFence:
			c.Counts.Fences++
			*compute = comp
			mc := ms.Fence(now + ns)
			comp = *compute
			ns += mc.Ns

		default:
			panic(fmt.Sprintf("cpu: unknown class %d at pc %d", d.Class, pc))
		}

		pc = next
		if eByNs := ctl.EByNs; ns < int64(len(eByNs)) {
			comp += eByNs[ns]
		} else {
			comp += ctl.EInstr + ctl.PRun*float64(ns)*1e-9
		}
		now += ns

		if k := tail[d.Class]; k != tailSkip {
			// The common mem tail, with no backup query and both
			// watermarks held, stays inline.
			stop := false
			if comp >= cSafe || k == tailLong ||
				k == tailMem && (ctl.NeedsBackup != nil || ctl.Led.NonCompute() >= ctl.nonComputeSafe) {
				stop, cSafe = ctl.slowTail(k, d.Class, executed, comp, cSafe, &regionBase)
			}
			if stop || ns >= ctl.MaxInstrNs || now >= ctl.SegDeadline {
				break
			}
		}
	}
	c.PC = pc
	c.Counts.Executed = executed
	*compute = comp
	return now - start, int(executed - regionBase)
}
