package arch

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/persist"
	"repro/internal/telemetry"
)

// sweep implements SweepCache (Figure 1e): a volatile write-back cache in
// front of dual NVM-resident persist buffers. During a region, dirty
// evictions are quarantined in the active buffer (t-phase1); at a region
// end the dirty lines named by the write-back-instructive table are flushed
// into the buffer (s-phase1) and a DMA drains the buffer to NVM (s-phase2)
// while the next region already executes out of the other buffer
// (region-level parallelism, Section 3.3). No JIT checkpointing exists:
// power failure destroys the cache and registers, and recovery follows the
// (phase1Complete, phase2Complete) protocol of Section 4.2 using the
// register-checkpoint array and recovery-PC slot in NVM.
//
// The simulator mirrors the paper's fast-path hardware: the region-end
// flush set comes from the cache's incremental dirty list (in lockstep
// with the WBI table — the table exists precisely so hardware need not
// scan the cache, Section 4.6), and buffer searches resolve through the
// youngest-entry index while charging the sequential NVM-search cost the
// modelled hardware pays. Build with -tags debugcheck to re-enable the
// full-scan agreement assertions.
type sweep struct {
	base
	emptyBit bool // Empty-Bit Search vs NVM Search (Section 4.4)

	bufs   [2]*persist.Buffer
	wbi    [2]*persist.WBITable
	active int
	seq    uint64

	// flushDoneAt[slot] is when the previous region's s-phase1 finishes
	// flushing that cacheline (the hardware walks the WBI table line by
	// line, clearing dirty bits as it goes).
	flushDoneAt []int64

	storesThisRegion int
	pendingRedo      []*persist.Buffer

	// nextDrainAt caches the earliest Phase2End among sealed, unretired
	// buffers (or noDrainPending), so the per-access Sync is one compare
	// instead of a two-buffer scan. Pure bookkeeping: drains still apply
	// at exactly the same simulated instants.
	nextDrainAt int64

	// Region-end scratch, reused across regions to keep the hot path
	// allocation-free.
	dirtyScratch []int
	flushScratch []persist.Entry
}

func newSweep(kind Kind, p config.Params) *sweep {
	s := &sweep{base: newBase(kind, p), emptyBit: kind == SweepEmptyBit}
	for i := range s.bufs {
		s.bufs[i] = persist.NewBuffer(p.StoreThreshold)
		s.wbi[i] = persist.NewWBITable(s.c.NumLines())
	}
	s.flushDoneAt = make([]int64, s.c.NumLines())
	s.seq = 1
	s.bufs[0].Claim(s.seq)
	s.nextDrainAt = noDrainPending
	return s
}

// noDrainPending marks nextDrainAt when no sealed buffer awaits its
// s-phase2 completion.
const noDrainPending = int64(^uint64(0) >> 1)

func (s *sweep) JIT() bool { return false }

// Boot emits the first region's start; the buffer itself was claimed at
// construction, before any tracer could be attached.
func (s *sweep) Boot(entryPC int64) {
	s.tr.Emit(telemetry.EvRegionStart, 0, int64(s.seq), 0, 0, 0)
}

// Sync drains buffers whose s-phase2 completed by now, in region order so
// a younger duplicate line lands after an older one. The fast path — no
// sealed buffer due yet — is a single compare against the cached earliest
// completion time.
func (s *sweep) Sync(now int64) {
	if now < s.nextDrainAt {
		return
	}
	for {
		var due *persist.Buffer
		for _, b := range s.bufs {
			if b.Sealed && !b.Retired && b.Phase2CompleteAt(now) {
				if due == nil || b.Region < due.Region {
					due = b
				}
			}
		}
		if due == nil {
			s.recomputeNextDrain()
			return
		}
		// The span's end time is the logical s-phase2 completion, not the
		// (later) moment the drain is observed and applied.
		s.tr.Emit(telemetry.EvSweepEnd, due.Phase2End, int64(due.Region), int64(due.Len()), 0, 0)
		due.Drain(s.nvm)
	}
}

// recomputeNextDrain re-derives the cached earliest pending s-phase2
// completion from the buffers' actual state.
func (s *sweep) recomputeNextDrain() {
	s.nextDrainAt = noDrainPending
	for _, b := range s.bufs {
		if b.Sealed && !b.Retired && b.Phase2End < s.nextDrainAt {
			s.nextDrainAt = b.Phase2End
		}
	}
}

// searchBuffers looks for addr in the persist buffers on a load miss,
// youngest region first (the active buffer holds the current region's
// evictions). The hit position comes from the buffer's youngest-entry
// index, but the charged latency and energy are the modelled hardware's
// sequential scan — each conceptually probed entry is an NVM read — so the
// cost is identical to walking the FIFO. With the empty-bit variant an
// empty buffer is skipped outright; the NVM Search variant always pays at
// least the FIFO metadata read (Section 4.4).
func (s *sweep) searchBuffers(now int64, addr int64) (*[mem.LineSize]byte, cpu.Cost) {
	var cost cpu.Cost
	searched := false
	var found *[mem.LineSize]byte
	order := [2]*persist.Buffer{s.bufs[s.active], s.bufs[1-s.active]}
	for _, b := range order {
		if s.emptyBit && b.Empty() {
			continue
		}
		searched = true
		cost.Ns += s.p.SearchBaseNs
		e, depth := b.FindDepth(addr)
		cost.Ns += int64(depth) * s.p.SearchPerEntryNs
		// One ledger add per probed entry, exactly as the sequential scan
		// charged it, so energy totals stay bit-identical.
		for i := 0; i < depth; i++ {
			s.led.NVM += s.p.ENVMRead
		}
		if e != nil {
			found = &e.Data
			break
		}
	}
	if searched {
		s.st.BufferSearches++
	} else {
		s.st.BufferBypasses++
	}
	if found != nil {
		s.st.BufferHits++
	}
	return found, cost
}

// missFill handles a load/store miss: evict the victim into the active
// buffer if dirty, then fill from the buffers or NVM.
func (s *sweep) missFill(now int64, addr int64) (int, cpu.Cost) {
	var cost cpu.Cost
	v := s.c.Victim(addr)
	if s.c.Valid(v) && s.c.Dirty(v) {
		// t-phase1: quarantine the writeback in the active buffer
		// (an NVM-resident write).
		s.bufs[s.active].Append(s.c.Tag(v), s.c.Data(v))
		s.nvm.LineWrites++
		s.led.Persist += s.p.ENVMLineWrite
		cost.Ns += s.p.NVMLineWriteNs
		s.wbi[s.active].ClearBit(v)
		s.tr.Emit(telemetry.EvDirtyEvict, now, s.c.Tag(v), int64(s.c.DirtyRegion(v)), 0, 0)
		s.c.ClearDirty(v)
		s.c.DirtyEvictions++
	}
	data, scost := s.searchBuffers(now, addr)
	cost.Add(scost)
	slot := s.c.FillUninit(addr)
	if data != nil {
		*s.c.Data(slot) = *data
	} else {
		s.nvm.ReadLine(mem.LineAddr(addr), s.c.Data(slot))
		s.led.NVM += s.p.ENVMLineRead
		cost.Ns += s.p.NVMLineReadNs
	}
	return slot, cost
}

func (s *sweep) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	s.Sync(now)
	s.led.Compute += s.p.ESRAMAccess
	slot := s.c.Touch(addr)
	var cost cpu.Cost
	if slot == cache.NoSlot {
		slot, cost = s.missFill(now, addr)
	}
	return s.read(slot, addr, byteWide), cost
}

func (s *sweep) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	s.Sync(now)
	s.led.Compute += s.p.ESRAMAccess
	slot := s.c.Touch(addr)
	var cost cpu.Cost
	if slot == cache.NoSlot {
		slot, cost = s.missFill(now, addr)
	}
	// Write-after-write rule (Section 4.3). The s-phase1 hardware walks
	// the previous region's WBI table line by line, clearing dirty bits
	// as it flushes; a store must wait if its target line is still
	// awaiting flush. A line already flushed (clean) proceeds — unless
	// the current region re-dirtied it, in which case the hardware's
	// coarse (dirty, WBI-prev, phase1Complete) check stalls spuriously:
	// the paper's rare false positive.
	prev := s.bufs[1-s.active]
	if s.wbi[1-s.active].Get(slot) && prev.Sealed && !prev.Phase1CompleteAt(now+cost.Ns) {
		t := now + cost.Ns
		var until int64
		if done := s.flushDoneAt[slot]; done > t {
			until = done // true hazard: this line's flush is in flight
		} else if s.c.Dirty(slot) {
			until = prev.Phase1End // false positive: re-dirtied line
		}
		if until > t {
			wait := until - t
			cost.Ns += wait
			s.st.WAWStallNs += wait
		}
	}
	s.write(slot, addr, val, byteWide)
	if !s.c.Dirty(slot) {
		s.c.MarkDirtyRegion(slot, s.seq)
		s.wbi[s.active].Set(slot)
	}
	s.storesThisRegion++
	return cost
}

// assertWBIAgreement is the paper's Section 4.6 invariant, checked the
// expensive way: the WBI table, the cache's incremental dirty list, and a
// full per-slot cache scan must all name exactly the same lines. The fast
// paths keep these in lockstep by construction; the scan survives behind
// the debugcheck build tag.
func (s *sweep) assertWBIAgreement(dirty []int) {
	if got, want := s.wbi[s.active].Count(), len(dirty); got != want {
		panic(fmt.Sprintf("sweep: WBI table (%d) disagrees with dirty list (%d)", got, want))
	}
	for _, slot := range dirty {
		if !s.wbi[s.active].Get(slot) {
			panic("sweep: dirty line missing from WBI table")
		}
	}
	for slot := 0; slot < s.c.NumLines(); slot++ {
		if s.wbi[s.active].Get(slot) != (s.c.Valid(slot) && s.c.Dirty(slot)) {
			panic(fmt.Sprintf("sweep: WBI/dirty-scan disagreement at slot %d", slot))
		}
	}
}

func (s *sweep) RegionEnd(now int64) cpu.Cost {
	s.Sync(now)
	var cost cpu.Cost

	// Structural hazard (Section 3.3): the buffer about to be claimed
	// must have finished its s-phase2.
	other := s.bufs[1-s.active]
	if other.Sealed && !other.Retired {
		wait := other.Phase2End - now
		if wait > 0 {
			cost.Ns += wait
			s.st.TwaitNs += wait
			s.Sync(now + cost.Ns)
		}
	}

	// s-phase1 flush set: the WBI-driven dirty list (Section 4.6), in the
	// same ascending slot order the full-cache scan produced.
	s.dirtyScratch = s.c.DirtySlots(s.dirtyScratch[:0])
	dirty := s.dirtyScratch
	if cache.DebugChecks {
		s.assertWBIAgreement(dirty)
	}
	flush := s.flushScratch[:0]
	start := now + cost.Ns
	for i, slot := range dirty {
		flush = append(flush, persist.Entry{Addr: s.c.Tag(slot), Data: *s.c.Data(slot)})
		s.c.ClearDirty(slot) // flushed lines remain resident and clean
		s.flushDoneAt[slot] = start + int64(i+1)*s.p.FlushPerLineNs
	}
	s.flushScratch = flush

	cur := s.bufs[s.active]
	cur.Seal(start, flush, s.p.FlushPerLineNs, s.p.DrainPerLineNs, other.Phase2End)
	if cur.Phase2End < s.nextDrainAt {
		s.nextDrainAt = cur.Phase2End
	}
	s.tr.Emit(telemetry.EvRegionCommit, start, int64(s.seq), int64(s.storesThisRegion), int64(len(dirty)), 0)
	s.tr.Emit(telemetry.EvSweepBegin, start, int64(cur.Region), int64(cur.Len()), 0, 0)

	// Account the persistence traffic: the flush writes the NVM-resident
	// buffer, the drain writes the home locations (write amplification,
	// Figure 16). Drain line-writes are counted when applied.
	nFlush := int64(len(flush))
	s.nvm.LineWrites += uint64(nFlush)
	s.led.Persist += float64(nFlush)*s.p.ENVMLineWrite + float64(cur.Len())*s.p.ENVMLineWrite

	// Parallelism accounting (Section 6.3): Tp is what a design without
	// region-level parallelism would stall for.
	s.st.TpNs += nFlush*s.p.FlushPerLineNs + int64(cur.Len())*s.p.DrainPerLineNs

	// Figure 3a ablation: with a single buffer the next region cannot
	// start until this region's own persistence completes.
	if s.p.SweepSingleBuffer {
		if wait := cur.Phase2End - start; wait > 0 {
			cost.Ns += wait
			s.st.TwaitNs += wait
			s.Sync(cur.Phase2End)
		}
	}
	s.st.RegionsExecuted++
	s.st.StoresPerRegion.Add(s.storesThisRegion)
	s.storesThisRegion = 0

	// Switch buffers; WBI of the ending region stays visible for the
	// WAW rule until its phase 1 completes.
	s.seq++
	s.active = 1 - s.active
	s.bufs[s.active].Claim(s.seq)
	s.wbi[s.active].Clear()
	s.tr.Emit(telemetry.EvRegionStart, now+cost.Ns, int64(s.seq), 0, 0, 0)
	return cost
}

func (s *sweep) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	panic("sweep: JIT backup does not exist in SweepCache")
}

func (s *sweep) PowerFail(now int64) {
	s.Sync(now)
	s.pendingRedo = s.pendingRedo[:0]
	// Classify each buffer by its phase bits at the failure instant
	// (Section 4.2): (1,0) buffers are redone at recovery in region
	// order; (0,0) buffers and the filling buffer are discarded.
	ordered := []*persist.Buffer{s.bufs[0], s.bufs[1]}
	if ordered[0].Region > ordered[1].Region {
		ordered[0], ordered[1] = ordered[1], ordered[0]
	}
	for _, b := range ordered {
		switch {
		case b.Sealed && !b.Retired && b.Phase1CompleteAt(now):
			s.pendingRedo = append(s.pendingRedo, b) // (1,0)
		default:
			b.Discard() // (0,0) or filling
		}
	}
	s.c.Invalidate()
	s.wbi[0].Clear()
	s.wbi[1].Clear()
	s.storesThisRegion = 0
	s.recomputeNextDrain()
}

func (s *sweep) Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost) {
	cost := cpu.Cost{Ns: s.p.RestoreTimeNs}
	// (1,0) recovery: redo the s-phase2 DMA. The drain is idempotent, so
	// redoing a partially completed one is safe.
	for _, b := range s.pendingRedo {
		n := int64(b.Len())
		s.tr.Emit(telemetry.EvRedoDrain, now, int64(b.Region), n, 0, 0)
		b.Drain(s.nvm)
		cost.Ns += n * s.p.DrainPerLineNs
		s.led.Restore += float64(n) * s.p.ENVMLineWrite
		s.st.RedoneDrains++
	}
	s.pendingRedo = s.pendingRedo[:0]

	// A fresh power-on has no s-phase1 in flight: drop every pre-outage
	// flush deadline so a post-reboot store can never observe a stale
	// s-phase1 window. (Stale deadlines were only reachable through WBI
	// bits, which PowerFail cleared, but the invariant is kept structural
	// rather than incidental.)
	for i := range s.flushDoneAt {
		s.flushDoneAt[i] = 0
	}

	// Reload the register file from the checkpoint array and the resume
	// PC from the recovery slot (two checkpoint lines plus the PC line).
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		regs[r] = s.nvm.ReadWord(ir.CkptSlotAddr(r))
	}
	pc := s.nvm.ReadWord(ir.PCSlotAddr)
	cost.Ns += 3 * s.p.NVMLineReadNs
	s.led.Restore += s.p.ESweepRestore + 3*s.p.ENVMLineRead
	s.st.RestoreEvents++

	// Fresh buffers for the restarted region.
	s.bufs[0].Discard()
	s.bufs[1].Discard()
	s.seq++
	s.active = 0
	s.bufs[0].Claim(s.seq)
	s.recomputeNextDrain()
	s.tr.Emit(telemetry.EvRegionStart, now, int64(s.seq), 0, 0, 0)
	return pc, cost
}

// Finalize drains both buffers in region order, then the still-dirty lines
// of the unfinished final region, so the final NVM image is observable.
func (s *sweep) Finalize() {
	ordered := []*persist.Buffer{s.bufs[0], s.bufs[1]}
	if ordered[0].Region > ordered[1].Region {
		ordered[0], ordered[1] = ordered[1], ordered[0]
	}
	for _, b := range ordered {
		for i := range b.Entries {
			s.nvm.PokeLine(b.Entries[i].Addr, &b.Entries[i].Data)
		}
		b.Discard()
	}
	s.recomputeNextDrain()
	s.base.Finalize()
}
