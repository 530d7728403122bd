package arch

import "repro/internal/cpu"

// nvp is the cache-free baseline (Figure 1a): every fetch and data access
// goes to NVM; a voltage monitor JIT-checkpoints the register file to NVFF.
type nvp struct{ base }

func (s *nvp) Fetch(now int64) cpu.Cost {
	s.led.NVM += s.p.ENVMRead
	return cpu.Cost{Ns: s.p.NVPFetchNs}
}

func (s *nvp) FetchIsFree() bool { return false }

func (s *nvp) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	s.led.NVM += s.p.ENVMRead
	var v int64
	if byteWide {
		v = int64(s.nvm.ReadByteAt(addr))
	} else {
		v = s.nvm.ReadWord(addr)
	}
	return v, cpu.Cost{Ns: s.p.NVMReadNs}
}

func (s *nvp) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	s.led.NVM += s.p.ENVMWrite
	if byteWide {
		s.nvm.WriteByteAt(addr, byte(val))
	} else {
		s.nvm.WriteWord(addr, val)
	}
	return cpu.Cost{Ns: s.p.NVMWriteNs}
}
