package cpu

// Differential fuzz of an epoch's stop point. Run defers the exact budget
// fold behind two watermarks; whatever it defers, one budgeted Run must
// stop after exactly the instruction where a reference stops that retires
// one instruction per call and tests Total()-LedStart >= Budget and the
// backup query after each, and the two final ledgers must be
// bit-identical. The memory system charges NVM, Persist, Backup and
// Compute amounts drawn from the input, from zero to more than the whole
// budget, and can raise the backup request inside a drawn call, as NvMR's
// writeback does when its rename table fills. No scheme charges Backup
// inside an instruction today; the charge holds the watermark to every
// field, not only those today's schemes touch.

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/isa"
)

// fuzzIn draws bounded values from the fuzz input; an exhausted input
// reads zeros.
type fuzzIn struct{ b []byte }

func (in *fuzzIn) u8() byte {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return v
}

// energy returns 0 for a zero byte, else scale·(1+m/8)·2^-e, with m the
// byte's low three bits and e its high five: from scale·2^-31 up to
// 1.875·scale.
func (in *fuzzIn) energy(scale float64) float64 {
	v := in.u8()
	if v == 0 {
		return 0
	}
	return math.Ldexp(scale*(1+float64(v&7)/8), -int(v>>3))
}

// memCharge is what one memory-system call adds to the ledger, and its
// latency.
type memCharge struct {
	nvm, persist, backup, compute float64
	ns                            int64
}

// chargeMem is flatMem whose every call, fetches included, charges the
// next entry of a drawn table, cycling; the call numbered raiseAt (from
// 1; 0 never) raises the backup request.
type chargeMem struct {
	*flatMem
	led     *energy.Ledger
	charges []memCharge
	calls   int
	raiseAt int
	need    bool
}

func (m *chargeMem) charge() Cost {
	c := m.charges[m.calls%len(m.charges)]
	m.calls++
	if m.calls == m.raiseAt {
		m.need = true
	}
	m.led.NVM += c.nvm
	m.led.Persist += c.persist
	m.led.Backup += c.backup
	m.led.Compute += c.compute
	return Cost{Ns: c.ns}
}

func (m *chargeMem) Fetch(now int64) Cost { return m.charge() }

func (m *chargeMem) Load(now int64, addr int64, byteWide bool) (int64, Cost) {
	v, _ := m.flatMem.Load(now, addr, byteWide)
	return v, m.charge()
}

func (m *chargeMem) Store(now int64, addr int64, val int64, byteWide bool) Cost {
	m.flatMem.Store(now, addr, val, byteWide)
	return m.charge()
}

func (m *chargeMem) RegionEnd(now int64) Cost        { return m.charge() }
func (m *chargeMem) Clwb(now int64, addr int64) Cost { return m.charge() }
func (m *chargeMem) Fence(now int64) Cost            { return m.charge() }

// epochCase is one drawn epoch: a program, its memory system's charges,
// the ledger it starts from and the call's stop rules.
type epochCase struct {
	prog      []isa.Instr
	charges   []memCharge
	led0      energy.Ledger
	ctl       Control // charge and stop rules; Led and sinks are set per run
	fetchFree bool
	query     bool // wire the backup query
	raiseAt   int
}

const epochFuzzMax = 1 << 12

// drawEpoch builds a case. The program is a loop: pc 0 sets the trip
// counter r13, a drawn body of compute, loads, stores, region ends,
// fences and the odd halt follows, then the decrement, the back-branch
// (r14 stays zero) and halt.
func drawEpoch(data []byte) epochCase {
	in := &fuzzIn{b: data}
	var ec epochCase
	budget := math.Ldexp(1+float64(in.u8())/256, -int(in.u8()%48))
	flags := in.u8()
	ec.fetchFree = flags&1 == 0
	ec.query = flags&2 != 0
	if flags&0x3c == 0x3c {
		budget = math.Inf(1)
	}
	ec.raiseAt = int(in.u8())
	scale := budget
	if math.IsInf(scale, 1) {
		scale = 1e-6
	}
	for _, f := range []*float64{&ec.led0.Compute, &ec.led0.NVM, &ec.led0.Persist,
		&ec.led0.Backup, &ec.led0.Restore, &ec.led0.Sleep} {
		*f = in.energy(scale)
	}
	ec.ctl = Control{
		EInstr:      in.energy(scale),
		PRun:        in.energy(scale) * 1e8,
		Max:         epochFuzzMax,
		LedStart:    ec.led0.Total() + float64(int(in.u8())-128)/64*scale,
		Budget:      budget,
		SegDeadline: math.MaxInt64,
		MaxInstrNs:  math.MaxInt64,
	}
	// The per-latency table, as the engine builds it; longer instructions
	// take the expression.
	ec.ctl.EByNs = make([]float64, in.u8()%64)
	for ns := range ec.ctl.EByNs {
		ec.ctl.EByNs[ns] = ec.ctl.EInstr + ec.ctl.PRun*float64(ns)*1e-9
	}

	reg := func() isa.Reg { return isa.Reg(1 + in.u8()%4) }
	ec.prog = []isa.Instr{{Op: isa.OpMovI, Dst: 13, Imm: 1 + int64(in.u8()%16)}}
	for n := 1 + int(in.u8()%32); n > 0; n-- {
		var ins isa.Instr
		switch op := in.u8() % 64; {
		case op < 16:
			ins = isa.Instr{Op: isa.OpAddI, Dst: reg(), Src1: reg(), Imm: int64(in.u8())}
		case op < 20:
			ins = isa.Instr{Op: isa.OpMul, Dst: reg(), Src1: reg(), Src2: reg()}
		case op < 24:
			ins = isa.Instr{Op: isa.OpDiv, Dst: reg(), Src1: reg(), Src2: reg()}
		case op < 34:
			ins = isa.Instr{Op: isa.OpLd, Dst: reg(), Src1: reg(), Imm: int64(in.u8()) * 8}
		case op < 38:
			ins = isa.Instr{Op: isa.OpLdB, Dst: reg(), Src1: reg(), Imm: int64(in.u8())}
		case op < 48:
			ins = isa.Instr{Op: isa.OpSt, Src1: reg(), Src2: reg(), Imm: int64(in.u8()) * 8}
		case op < 52:
			ins = isa.Instr{Op: isa.OpStB, Src1: reg(), Src2: reg(), Imm: int64(in.u8())}
		case op < 58:
			ins = isa.Instr{Op: isa.OpRegionEnd}
		case op < 61:
			ins = isa.Instr{Op: isa.OpFence}
		case op < 63:
			ins = isa.Instr{Op: isa.OpClwb, Src1: reg(), Imm: int64(in.u8())}
		default:
			ins = isa.Instr{Op: isa.OpHalt}
		}
		ec.prog = append(ec.prog, ins)
	}
	ec.prog = append(ec.prog,
		isa.Instr{Op: isa.OpAddI, Dst: 13, Src1: 13, Imm: -1},
		isa.Instr{Op: isa.OpBne, Src1: 13, Src2: 14, Target: 1},
		isa.Instr{Op: isa.OpHalt})

	for n := 1 + int(in.u8()%16); n > 0; n-- {
		ec.charges = append(ec.charges, memCharge{
			nvm:     in.energy(scale),
			persist: in.energy(scale),
			backup:  in.energy(scale),
			compute: in.energy(scale),
			ns:      int64(in.u8() % 48),
		})
	}
	return ec
}

// epochRun is what one side of the comparison ends with.
type epochRun struct {
	elapsed int64
	pc      int64
	halted  bool
	regs    Regs
	counts  Counts
	calls   int
	regions []int
	running int
	ledger  [6]uint64 // field bits, in declaration order
}

func (ec *epochCase) start() (*CPU, *chargeMem, *energy.Ledger, Control, *[]int) {
	c := New(ec.prog, 0)
	c.SetFetchFree(ec.fetchFree)
	led := ec.led0
	m := &chargeMem{flatMem: newFlatMem(), led: &led, charges: ec.charges, raiseAt: ec.raiseAt}
	regions := new([]int)
	ctl := ec.ctl
	ctl.Led = &led
	ctl.OnRegionEnd = func(n int) { *regions = append(*regions, n) }
	return c, m, &led, ctl, regions
}

func (ec *epochCase) finish(c *CPU, m *chargeMem, led *energy.Ledger, elapsed int64, regions []int, running int) epochRun {
	r := epochRun{elapsed: elapsed, pc: c.PC, halted: c.Halted, regs: c.Regs, counts: c.Counts,
		calls: m.calls, regions: regions, running: running}
	for i, f := range []float64{led.Compute, led.NVM, led.Persist, led.Backup, led.Restore, led.Sleep} {
		r.ledger[i] = math.Float64bits(f)
	}
	return r
}

// checked is the call under test: one budgeted Run.
func (ec *epochCase) checked() epochRun {
	c, m, led, ctl, regions := ec.start()
	if ec.query {
		ctl.NeedsBackup = func() bool { return m.need }
	}
	elapsed, running := c.Run(0, m, timing, &ctl)
	return ec.finish(c, m, led, elapsed, *regions, running)
}

// reference retires one instruction per call, with no budget or query,
// and applies both stop rules itself.
func (ec *epochCase) reference() epochRun {
	c, m, led, ctl, regions := ec.start()
	ctl.Budget = math.Inf(1)
	var elapsed int64
	for !c.Halted && c.Counts.Executed < epochFuzzMax {
		ctl.Max = c.Counts.Executed + 1
		var ns int64
		ns, ctl.RegionInstrs = c.Run(elapsed, m, timing, &ctl)
		elapsed += ns
		if led.Total()-ec.ctl.LedStart >= ec.ctl.Budget || ec.query && m.need {
			break
		}
	}
	return ec.finish(c, m, led, elapsed, *regions, ctl.RegionInstrs)
}

func FuzzEpochStop(f *testing.F) {
	// Hand-picked: a 16-trip loop whose NVM charges alone cross the
	// budget while Compute stays far below its watermark, under free and
	// charged fetch, with and without the query.
	storeLoop := func(flags, raiseAt byte, body ...[]byte) []byte {
		s := []byte{
			0x80, 20, // budget 1.5·2^-20
			flags, raiseAt,
			0, 0, 0, 0, 0, 0, // initial ledger
			0xf8, 0xf8, 128, 0, // EInstr, PRun, LedStart offset, table
			15, byte(len(body) - 1),
		}
		for _, ins := range body {
			s = append(s, ins...)
		}
		return append(s, 0, 0x20, 0, 0, 0, 4) // one charge: budget/16 of NVM
	}
	st1, addi, st2, regionEnd := []byte{40, 1, 2, 0}, []byte{0, 1, 1, 1}, []byte{40, 2, 3, 1}, []byte{52}
	for _, flags := range []byte{0, 1, 2, 3} {
		f.Add(storeLoop(flags, 6, st1, addi, st2))
	}
	// The query raised inside a region end, whose long tail must see it.
	f.Add(storeLoop(2, 2, st1, regionEnd, st2))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 96; i++ {
		s := make([]byte, 48+rng.Intn(160))
		rng.Read(s)
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ec := drawEpoch(data)
		got, want := ec.checked(), ec.reference()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("checked Run retired %d instructions (pc %d, halted %v, %d memory calls), ledger %v;\n"+
				"reference retired %d (pc %d, halted %v, %d memory calls), ledger %v\n"+
				"budget %g from %g, fetch free %v, query %v raised at call %d\ncheck %+v\nref   %+v",
				got.counts.Executed, got.pc, got.halted, got.calls, got.ledger,
				want.counts.Executed, want.pc, want.halted, want.calls, want.ledger,
				ec.ctl.Budget, ec.ctl.LedStart, ec.fetchFree, ec.query, ec.raiseAt, got, want)
		}
	})
}
