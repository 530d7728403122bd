package arch

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// wt is NVP plus a volatile write-through cache (Figure 1b): loads are
// cached, but every store pays a synchronous NVM write, so the cache never
// holds dirty data and crash consistency is free beyond the JIT register
// checkpoint.
type wt struct{ base }

// fill brings addr's line in from NVM; write-through lines are always
// clean, so the victim needs no draining.
func (s *wt) fill(addr int64) (int, cpu.Cost) {
	slot := s.c.FillUninit(addr)
	s.nvm.ReadLine(mem.LineAddr(addr), s.c.Data(slot))
	s.led.NVM += s.p.ENVMLineRead
	return slot, cpu.Cost{Ns: s.p.NVMLineReadNs}
}

func (s *wt) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	s.led.Compute += s.p.ESRAMAccess
	slot := s.c.Touch(addr)
	var cost cpu.Cost
	if slot == cache.NoSlot {
		slot, cost = s.fill(addr)
	}
	return s.read(slot, addr, byteWide), cost
}

func (s *wt) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	s.led.Compute += s.p.ESRAMAccess
	// Update the cached copy if present (no write-allocate) ...
	if slot := s.c.Touch(addr); slot != cache.NoSlot {
		s.write(slot, addr, val, byteWide)
	}
	// ... and always write through to NVM.
	s.led.NVM += s.p.ENVMWrite
	if byteWide {
		s.nvm.WriteByteAt(addr, byte(val))
	} else {
		s.nvm.WriteWord(addr, val)
	}
	return cpu.Cost{Ns: s.p.NVMWriteNs}
}
