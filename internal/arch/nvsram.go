package arch

import (
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// nvsram is a volatile write-back cache with a nonvolatile counterpart
// (Figure 1c): the JIT backup copies dirty lines (or, for NVSRAM-E, the
// entire cache) into the counterpart, and restore brings them back, so the
// cache survives outages warm.
type nvsram struct {
	base
	entire bool // NVSRAM-E: back up every valid line

	snapLines []savedLine

	// slotScratch is reused by Backup's line enumeration.
	slotScratch []int
}

type savedLine struct {
	addr  int64
	dirty bool
	data  [mem.LineSize]byte
}

func newNVSRAM(kind Kind, p config.Params) *nvsram {
	return &nvsram{base: newBase(kind, p), entire: kind == NVSRAME}
}

// access is the shared write-back, write-allocate path.
func (s *nvsram) access(now int64, addr int64) (int, cpu.Cost) {
	s.led.Compute += s.p.ESRAMAccess
	if slot := s.c.Touch(addr); slot != cache.NoSlot {
		return slot, cpu.Cost{}
	}
	var cost cpu.Cost
	v := s.c.Victim(addr)
	if s.c.Valid(v) && s.c.Dirty(v) {
		s.nvm.WriteLine(s.c.Tag(v), s.c.Data(v))
		s.led.NVM += s.p.ENVMLineWrite
		cost.Ns += s.p.NVMLineWriteNs
		s.tr.Emit(telemetry.EvDirtyEvict, now, s.c.Tag(v), 0, 0, 0)
		s.c.ClearDirty(v)
		s.c.DirtyEvictions++
	}
	slot := s.c.FillUninit(addr)
	s.nvm.ReadLine(mem.LineAddr(addr), s.c.Data(slot))
	s.led.NVM += s.p.ENVMLineRead
	cost.Ns += s.p.NVMLineReadNs
	return slot, cost
}

func (s *nvsram) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	slot, cost := s.access(now, addr)
	return s.read(slot, addr, byteWide), cost
}

func (s *nvsram) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	slot, cost := s.access(now, addr)
	s.write(slot, addr, val, byteWide)
	s.c.MarkDirty(slot)
	return cost
}

func (s *nvsram) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	s.snapRegs = *regs
	s.snapPC = pc
	s.snapLines = s.snapLines[:0]
	if s.entire {
		s.slotScratch = s.c.ValidSlots(s.slotScratch[:0])
	} else {
		s.slotScratch = s.c.DirtySlots(s.slotScratch[:0])
	}
	for _, slot := range s.slotScratch {
		s.snapLines = append(s.snapLines, savedLine{
			addr: s.c.Tag(slot), dirty: s.c.Dirty(slot), data: *s.c.Data(slot),
		})
	}
	n := int64(len(s.slotScratch))
	s.led.Backup += s.p.EBackupFixed + float64(n)*s.p.EBackupPerLine
	s.st.BackupEvents++
	s.st.LinesBackedUp += uint64(n)
	return cpu.Cost{Ns: s.p.BackupTimeNs + n*s.p.BackupPerLineNs}
}

func (s *nvsram) Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost) {
	*regs = s.snapRegs
	for i := range s.snapLines {
		sl := &s.snapLines[i]
		slot := s.c.Fill(sl.addr, &sl.data)
		if sl.dirty {
			s.c.MarkDirty(slot)
		}
	}
	n := int64(len(s.snapLines))
	s.led.Restore += s.p.ERestoreFixed + float64(n)*s.p.ERestorePerLine
	s.st.RestoreEvents++
	return s.snapPC, cpu.Cost{Ns: s.p.RestoreTimeNs + n*s.p.RestorePerLineNs}
}
