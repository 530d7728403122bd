package arch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// nvmr approximates NvMR (Section 6.7): a JIT-checkpoint design whose
// memory renaming removes write-after-read hazards so execution continues
// past the backup instead of halting until VRestore. Post-backup NVM
// writes go to renamed locations (modelled as an overlay); they commit at
// the next backup and are discarded on rollback. When the rename resources
// fill up, NvMR must take another backup.
type nvmr struct {
	base

	// overlay holds renamed post-backup line writes; loads snoop it.
	overlay map[int64]*[mem.LineSize]byte

	needBk bool

	// dirtyScratch is reused by Backup's dirty-line enumeration.
	dirtyScratch []int
}

func newNvMR(p config.Params) *nvmr {
	return &nvmr{base: newBase(NvMR, p), overlay: map[int64]*[mem.LineSize]byte{}}
}

func (s *nvmr) ContinuesAfterBackup() bool { return true }

// NeedsBackup reports that the rename table is full and a commit backup is
// required before more speculative writebacks can rename. No other scheme
// has the method, so the engine asks only NvMR.
func (s *nvmr) NeedsBackup() bool { return s.needBk }

func (s *nvmr) writeback(v int) {
	// Renamed write: the data lands in NVM at an alternate location, so
	// the pre-backup value of the home location survives a rollback.
	cp := *s.c.Data(v)
	s.overlay[s.c.Tag(v)] = &cp
	s.nvm.LineWrites++
	s.led.NVM += s.p.ENVMLineWrite
	if len(s.overlay) >= s.p.NvMRRenameCap {
		s.needBk = true
	}
}

func (s *nvmr) access(now int64, addr int64) (int, cpu.Cost) {
	s.led.Compute += s.p.ESRAMAccess
	if slot := s.c.Touch(addr); slot != cache.NoSlot {
		return slot, cpu.Cost{}
	}
	var cost cpu.Cost
	v := s.c.Victim(addr)
	if s.c.Valid(v) && s.c.Dirty(v) {
		s.writeback(v)
		cost.Ns += s.p.NVMLineWriteNs
		s.tr.Emit(telemetry.EvDirtyEvict, now, s.c.Tag(v), 0, 0, 0)
		s.c.ClearDirty(v)
		s.c.DirtyEvictions++
	}
	slot := s.c.FillUninit(addr)
	if ov := s.overlay[mem.LineAddr(addr)]; ov != nil {
		*s.c.Data(slot) = *ov
	} else {
		s.nvm.ReadLine(mem.LineAddr(addr), s.c.Data(slot))
	}
	s.led.NVM += s.p.ENVMLineRead
	cost.Ns += s.p.NVMLineReadNs
	return slot, cost
}

func (s *nvmr) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	slot, cost := s.access(now, addr)
	return s.read(slot, addr, byteWide), cost
}

func (s *nvmr) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	slot, cost := s.access(now, addr)
	s.write(slot, addr, val, byteWide)
	s.c.MarkDirty(slot)
	return cost
}

// Backup commits the speculative overlay (the renamed data is already in
// NVM; committing publishes the mapping), persists the dirty cachelines
// and registers, and re-arms speculation.
func (s *nvmr) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	for addr, data := range s.overlay {
		s.nvm.PokeLine(addr, data) // mapping switch, not a data write
		delete(s.overlay, addr)
	}
	s.dirtyScratch = s.c.DirtySlots(s.dirtyScratch[:0])
	for _, slot := range s.dirtyScratch {
		s.nvm.WriteLine(s.c.Tag(slot), s.c.Data(slot))
		s.c.ClearDirty(slot)
	}
	n := int64(len(s.dirtyScratch))
	s.snapRegs = *regs
	s.snapPC = pc
	s.needBk = false
	// NvMR's backup persists more volatile state than a plain JIT
	// checkpoint: registers, dirty cachelines, and the rename-table and
	// store-buffer contents the renaming depends on (Section 6.7), so
	// both the fixed and per-line costs are substantially higher.
	s.led.Backup += 2*s.p.EBackupFixed + float64(n)*4*s.p.EBackupPerLine
	s.st.BackupEvents++
	s.st.LinesBackedUp += uint64(n)
	return cpu.Cost{Ns: 2*s.p.BackupTimeNs + n*s.p.BackupPerLineNs}
}

func (s *nvmr) PowerFail(now int64) {
	// Roll back: speculative renamed writes are discarded; the cache is
	// lost.
	for addr := range s.overlay {
		delete(s.overlay, addr)
	}
	s.c.Invalidate()
	s.needBk = false
}

// Finalize commits the speculative overlay and dirty lines.
func (s *nvmr) Finalize() {
	for addr, data := range s.overlay {
		s.nvm.PokeLine(addr, data)
		delete(s.overlay, addr)
	}
	s.base.Finalize()
}
