package arch

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/telemetry"
)

// replay implements ReplayCache (Figure 1d): a volatile write-back cache
// where the compiler follows every store with a clwb and fences at region
// ends. Writebacks drain asynchronously through a small queue; stores left
// unpersisted at the JIT backup are replayed into NVM during recovery
// (store integrity guarantees the operands survive — here the replay set is
// recorded at backup time, which is observationally identical).
type replay struct {
	base

	// pending is the asynchronous clwb drain queue, oldest first.
	pending []clwbEntry
	// lastDrainDone is when the most recently enqueued entry completes.
	lastDrainDone int64

	snapReplay []clwbEntry

	// dirtyScratch is reused by Backup's dirty-line enumeration.
	dirtyScratch []int
}

type clwbEntry struct {
	addr   int64
	doneAt int64
	data   [mem.LineSize]byte
}

// Sync applies queue entries whose drain completed by now.
func (s *replay) Sync(now int64) {
	i := 0
	for ; i < len(s.pending) && s.pending[i].doneAt <= now; i++ {
		s.nvm.WriteLine(s.pending[i].addr, &s.pending[i].data)
	}
	if i > 0 {
		s.pending = append(s.pending[:0], s.pending[i:]...)
	}
}

// findPending returns the youngest queued writeback for addr's line, if
// any — a miss must snoop the queue or it would read stale NVM.
func (s *replay) findPending(addr int64) *clwbEntry {
	la := mem.LineAddr(addr)
	for i := len(s.pending) - 1; i >= 0; i-- {
		if s.pending[i].addr == la {
			return &s.pending[i]
		}
	}
	return nil
}

func (s *replay) access(now int64, addr int64) (int, cpu.Cost) {
	s.Sync(now)
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
	if pe := s.findPending(addr); pe != nil {
		*s.c.Data(slot) = pe.data
	} else {
		s.nvm.ReadLine(mem.LineAddr(addr), s.c.Data(slot))
	}
	s.led.NVM += s.p.ENVMLineRead
	cost.Ns += s.p.NVMLineReadNs
	return slot, cost
}

func (s *replay) Load(now int64, addr int64, byteWide bool) (int64, cpu.Cost) {
	slot, cost := s.access(now, addr)
	return s.read(slot, addr, byteWide), cost
}

func (s *replay) Store(now int64, addr int64, val int64, byteWide bool) cpu.Cost {
	slot, cost := s.access(now, addr)
	s.write(slot, addr, val, byteWide)
	s.c.MarkDirty(slot)
	return cost
}

func (s *replay) Clwb(now int64, addr int64) cpu.Cost {
	s.Sync(now)
	var cost cpu.Cost
	if len(s.pending) >= s.p.ClwbQueueDepth {
		// Structural stall until the oldest entry drains.
		wait := s.pending[0].doneAt - now
		if wait > 0 {
			cost.Ns += wait
			s.st.ClwbStallNs += wait
		}
		s.Sync(now + cost.Ns)
	}
	slot := s.c.Probe(addr)
	if slot == cache.NoSlot {
		// The line was evicted between store and clwb (possible only
		// across a boundary oddity); the eviction already wrote NVM.
		return cost
	}
	start := now + cost.Ns
	if s.lastDrainDone > start {
		start = s.lastDrainDone
	}
	done := start + s.p.NVMLineWriteNs
	s.pending = append(s.pending, clwbEntry{addr: s.c.Tag(slot), doneAt: done, data: *s.c.Data(slot)})
	s.lastDrainDone = done
	s.led.Persist += s.p.ENVMLineWrite
	s.c.ClearDirty(slot)
	return cost
}

func (s *replay) Fence(now int64) cpu.Cost {
	s.Sync(now)
	var cost cpu.Cost
	if n := len(s.pending); n > 0 {
		wait := s.pending[n-1].doneAt - now
		if wait > 0 {
			cost.Ns += wait
			s.st.FenceStallNs += wait
		}
		s.Sync(now + cost.Ns)
	}
	return cost
}

func (s *replay) Backup(now int64, regs *cpu.Regs, pc int64) cpu.Cost {
	// Unpersisted stores = queued writebacks not yet drained, plus dirty
	// lines whose clwb had not issued yet.
	s.snapReplay = append(s.snapReplay[:0], s.pending...)
	s.dirtyScratch = s.c.DirtySlots(s.dirtyScratch[:0])
	for _, slot := range s.dirtyScratch {
		s.snapReplay = append(s.snapReplay, clwbEntry{addr: s.c.Tag(slot), data: *s.c.Data(slot)})
	}
	return s.base.Backup(now, regs, pc)
}

func (s *replay) PowerFail(now int64) {
	s.c.Invalidate()
	s.pending = s.pending[:0]
	s.lastDrainDone = 0
}

func (s *replay) Restore(now int64, regs *cpu.Regs) (int64, cpu.Cost) {
	// Replay unpersisted stores sequentially (Section 2.2: "load the
	// data ... to execute a recovery block for replaying stores
	// sequentially, which leads to slow recovery").
	var cost cpu.Cost
	for i := range s.snapReplay {
		e := &s.snapReplay[i]
		s.nvm.WriteLine(e.addr, &e.data)
		s.led.Restore += s.p.ERestorePerLine
		cost.Ns += s.p.NVMLineWriteNs + 2*s.p.CycleNs
		s.st.ReplayedStores++
	}
	s.snapReplay = s.snapReplay[:0]
	pc, rc := s.base.Restore(now, regs)
	cost.Add(rc)
	return pc, cost
}

// Finalize applies the outstanding clwb queue and dirty lines.
func (s *replay) Finalize() {
	for i := range s.pending {
		s.nvm.PokeLine(s.pending[i].addr, &s.pending[i].data)
	}
	s.pending = s.pending[:0]
	s.base.Finalize()
}
