// Package ir provides the compiler's intermediate representation: programs
// made of functions, functions made of basic blocks holding isa.Instr
// sequences, plus a builder DSL the benchmark kernels are written in and a
// linker that lays blocks out into flat executable code.
//
// Control flow is explicit: every block ends in exactly one terminator and
// records its successor blocks as pointers (TakenTarget for the branch/jump
// target, FallTarget for the fall-through path, CallTarget for the callee).
// The isa.Instr Target field is only meaningful after Link.
package ir

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// Data-layout constants shared with the memory system. The low page of the
// address space is architectural: the recovery-PC slot and the register
// checkpoint array live there so checkpoint stores can use fixed addresses
// (Section 4.1, "Checkpoint Storage Management").
const (
	// PCSlotAddr is the NVM address of the recovery PC slot.
	PCSlotAddr = 0
	// CkptBase is the NVM base address of the register checkpoint array;
	// register r's slot is CkptBase + 8*r.
	CkptBase = 64
	// DataBase is where builder-allocated program data begins.
	DataBase = 4096
)

// CkptSlotAddr returns the checkpoint-array address for register r.
func CkptSlotAddr(r isa.Reg) int64 { return CkptBase + 8*int64(r) }

// Program is a whole compilation unit: functions plus a global data segment.
type Program struct {
	Name  string
	Funcs []*Function
	// Entry is the function execution starts in. It must end in OpHalt on
	// every exiting path rather than OpRet.
	Entry *Function

	// DataSize is the number of bytes of global data allocated past
	// DataBase. Inits holds the data to pre-load into NVM before
	// execution as byte runs, in init order: an init that starts where
	// the last run ends extends it, so a later init of the same address
	// still wins when the runs are loaded in turn.
	DataSize int64
	Inits    []ImageRun

	nextAlloc int64
}

// ImageRun is a contiguous byte run of a program's initial NVM image.
type ImageRun struct {
	Addr int64
	Data []byte
}

// Function is a named sequence of basic blocks. Blocks[0] is the entry.
type Function struct {
	Name   string
	Idx    int
	Blocks []*Block

	prog *Program
}

// Block is a basic block: straight-line instructions ending in one
// terminator. The builder appends via the typed helper methods.
type Block struct {
	Label string
	Fn    *Function
	// Idx is the block's position within Fn.Blocks; maintained by the
	// builder and by compiler passes that split blocks.
	Idx    int
	Instrs []isa.Instr

	// TakenTarget is the successor for branch/jump terminators.
	TakenTarget *Block
	// FallTarget is the fall-through successor for conditional branches
	// and the continuation block for calls.
	FallTarget *Block
	// CallTarget is the callee for call terminators.
	CallTarget *Function

	// RegionHead is set by the compiler when a region boundary precedes
	// this block.
	RegionHead bool

	sealed bool
}

// NewProgram returns an empty program named name.
func NewProgram(name string) *Program {
	return &Program{Name: name}
}

// NewFunc adds a function with an empty entry block labeled "entry". The
// first function created becomes the program entry unless SetEntry
// overrides it.
func (p *Program) NewFunc(name string) *Function {
	f := &Function{Name: name, Idx: len(p.Funcs), prog: p}
	p.Funcs = append(p.Funcs, f)
	if p.Entry == nil {
		p.Entry = f
	}
	f.NewBlock("entry")
	return f
}

// SetEntry marks f as the program entry point.
func (p *Program) SetEntry(f *Function) { p.Entry = f }

// Alloc reserves size bytes of global data (8-byte aligned) and returns the
// base address.
func (p *Program) Alloc(size int64) int64 {
	addr := DataBase + p.nextAlloc
	p.nextAlloc += (size + 7) &^ 7
	p.DataSize = p.nextAlloc
	return addr
}

// InitWord records a 64-bit word to pre-load into NVM at addr.
func (p *Program) InitWord(addr, val int64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(val))
	p.initBytes(addr, w[:])
}

// InitByte records a byte to pre-load into NVM at addr.
func (p *Program) InitByte(addr int64, val byte) {
	p.initBytes(addr, []byte{val})
}

func (p *Program) initBytes(addr int64, b []byte) {
	if n := len(p.Inits); n > 0 {
		if last := &p.Inits[n-1]; last.Addr+int64(len(last.Data)) == addr {
			last.Data = append(last.Data, b...)
			return
		}
	}
	p.Inits = append(p.Inits, ImageRun{addr, append([]byte(nil), b...)})
}

// InitWords pre-loads consecutive words starting at base.
func (p *Program) InitWords(base int64, vals []int64) {
	for i, v := range vals {
		p.InitWord(base+8*int64(i), v)
	}
}

// AllocWords allocates and initializes a word array, returning its base.
func (p *Program) AllocWords(vals []int64) int64 {
	base := p.Alloc(8 * int64(len(vals)))
	p.InitWords(base, vals)
	return base
}

// NewBlock appends an empty block to f.
func (f *Function) NewBlock(label string) *Block {
	b := &Block{Label: label, Fn: f, Idx: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the function's entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// renumber restores Block.Idx invariants after passes insert blocks.
func (f *Function) renumber() {
	for i, b := range f.Blocks {
		b.Idx = i
	}
}

// InsertBlockAfter places nb immediately after b in layout order.
func (f *Function) InsertBlockAfter(b *Block, nb *Block) {
	f.Blocks = append(f.Blocks, nil)
	copy(f.Blocks[b.Idx+2:], f.Blocks[b.Idx+1:])
	f.Blocks[b.Idx+1] = nb
	f.renumber()
}

// NewBlockAfter creates an empty sealed block placed right after prev in
// layout order. Compiler passes fill Instrs and targets directly.
func (f *Function) NewBlockAfter(prev *Block, label string) *Block {
	nb := &Block{Label: label, Fn: f, sealed: true}
	f.InsertBlockAfter(prev, nb)
	return nb
}

// SplitAt splits b before instruction index idx (0 < idx <= len-1). The new
// block receives Instrs[idx:] together with b's terminator targets; b is
// re-terminated with a jump to the new block, which is laid out right after
// b. Returns the new block.
func (f *Function) SplitAt(b *Block, idx int) *Block {
	if idx <= 0 || idx >= len(b.Instrs) {
		panic(fmt.Sprintf("ir: SplitAt(%s.%s, %d) out of range", f.Name, b.Label, idx))
	}
	nb := &Block{
		Label:       b.Label + ".split",
		Fn:          f,
		Instrs:      append([]isa.Instr(nil), b.Instrs[idx:]...),
		TakenTarget: b.TakenTarget,
		FallTarget:  b.FallTarget,
		CallTarget:  b.CallTarget,
		sealed:      true,
	}
	b.Instrs = append(b.Instrs[:idx:idx], isa.Instr{Op: isa.OpJmp})
	b.TakenTarget = nb
	b.FallTarget = nil
	b.CallTarget = nil
	b.sealed = true
	f.InsertBlockAfter(b, nb)
	return nb
}

// Succs appends b's successor blocks to dst and returns it. Call blocks
// have their continuation (FallTarget) as their only intra-procedural
// successor.
func (b *Block) Succs(dst []*Block) []*Block {
	if len(b.Instrs) == 0 {
		return dst
	}
	t := b.Instrs[len(b.Instrs)-1]
	switch {
	case t.Op.IsBranch():
		dst = append(dst, b.TakenTarget, b.FallTarget)
	case t.Op == isa.OpJmp:
		dst = append(dst, b.TakenTarget)
	case t.Op == isa.OpCall:
		dst = append(dst, b.FallTarget)
	}
	return dst
}

// Terminator returns the block's final instruction.
func (b *Block) Terminator() isa.Instr { return b.Instrs[len(b.Instrs)-1] }

// append adds an instruction, panicking if the block is already sealed.
func (b *Block) append(in isa.Instr) {
	if b.sealed {
		panic(fmt.Sprintf("ir: append to sealed block %s.%s", b.Fn.Name, b.Label))
	}
	b.Instrs = append(b.Instrs, in)
}

func (b *Block) seal() { b.sealed = true }

// ---- builder helpers: straight-line instructions ----

// Nop appends a no-op.
func (b *Block) Nop() { b.append(isa.Instr{Op: isa.OpNop}) }

// MovI sets d to the constant v.
func (b *Block) MovI(d isa.Reg, v int64) {
	b.append(isa.Instr{Op: isa.OpMovI, Dst: d, Imm: v})
}

// Mov copies s into d.
func (b *Block) Mov(d, s isa.Reg) {
	b.append(isa.Instr{Op: isa.OpMov, Dst: d, Src1: s})
}

// ALU appends a register-register ALU op d = a op c.
func (b *Block) ALU(op isa.Op, d, a, c isa.Reg) {
	if !op.IsALURR() {
		panic("ir: ALU with non-RR op " + op.String())
	}
	b.append(isa.Instr{Op: op, Dst: d, Src1: a, Src2: c})
}

// ALUI appends a register-immediate ALU op d = a op imm.
func (b *Block) ALUI(op isa.Op, d, a isa.Reg, imm int64) {
	if !op.IsALURI() {
		panic("ir: ALUI with non-RI op " + op.String())
	}
	b.append(isa.Instr{Op: op, Dst: d, Src1: a, Imm: imm})
}

// Add appends d = a + c. The remaining arithmetic helpers follow suit.
func (b *Block) Add(d, a, c isa.Reg)  { b.ALU(isa.OpAdd, d, a, c) }
func (b *Block) Sub(d, a, c isa.Reg)  { b.ALU(isa.OpSub, d, a, c) }
func (b *Block) Mul(d, a, c isa.Reg)  { b.ALU(isa.OpMul, d, a, c) }
func (b *Block) Div(d, a, c isa.Reg)  { b.ALU(isa.OpDiv, d, a, c) }
func (b *Block) Rem(d, a, c isa.Reg)  { b.ALU(isa.OpRem, d, a, c) }
func (b *Block) And(d, a, c isa.Reg)  { b.ALU(isa.OpAnd, d, a, c) }
func (b *Block) Or(d, a, c isa.Reg)   { b.ALU(isa.OpOr, d, a, c) }
func (b *Block) Xor(d, a, c isa.Reg)  { b.ALU(isa.OpXor, d, a, c) }
func (b *Block) Shl(d, a, c isa.Reg)  { b.ALU(isa.OpShl, d, a, c) }
func (b *Block) Shr(d, a, c isa.Reg)  { b.ALU(isa.OpShr, d, a, c) }
func (b *Block) Sar(d, a, c isa.Reg)  { b.ALU(isa.OpSar, d, a, c) }
func (b *Block) Slt(d, a, c isa.Reg)  { b.ALU(isa.OpSlt, d, a, c) }
func (b *Block) Sltu(d, a, c isa.Reg) { b.ALU(isa.OpSltu, d, a, c) }

// AddI appends d = a + imm; the remaining immediate helpers follow suit.
func (b *Block) AddI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpAddI, d, a, imm) }
func (b *Block) MulI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpMulI, d, a, imm) }
func (b *Block) AndI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpAndI, d, a, imm) }
func (b *Block) OrI(d, a isa.Reg, imm int64)  { b.ALUI(isa.OpOrI, d, a, imm) }
func (b *Block) XorI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpXorI, d, a, imm) }
func (b *Block) ShlI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpShlI, d, a, imm) }
func (b *Block) ShrI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpShrI, d, a, imm) }
func (b *Block) SarI(d, a isa.Reg, imm int64) { b.ALUI(isa.OpSarI, d, a, imm) }

// Ld loads the word at [base+off] into d.
func (b *Block) Ld(d, base isa.Reg, off int64) {
	b.append(isa.Instr{Op: isa.OpLd, Dst: d, Src1: base, Imm: off})
}

// LdB loads the zero-extended byte at [base+off] into d.
func (b *Block) LdB(d, base isa.Reg, off int64) {
	b.append(isa.Instr{Op: isa.OpLdB, Dst: d, Src1: base, Imm: off})
}

// St stores the word in src to [base+off].
func (b *Block) St(base isa.Reg, off int64, src isa.Reg) {
	b.append(isa.Instr{Op: isa.OpSt, Src1: base, Imm: off, Src2: src})
}

// StB stores the low byte of src to [base+off].
func (b *Block) StB(base isa.Reg, off int64, src isa.Reg) {
	b.append(isa.Instr{Op: isa.OpStB, Src1: base, Imm: off, Src2: src})
}

// ---- builder helpers: terminators ----

// Br appends a conditional branch terminator to taken, falling through to
// fall, and seals the block.
func (b *Block) Br(op isa.Op, a, c isa.Reg, taken, fall *Block) {
	if !op.IsBranch() {
		panic("ir: Br with non-branch op " + op.String())
	}
	b.append(isa.Instr{Op: op, Src1: a, Src2: c})
	b.TakenTarget = taken
	b.FallTarget = fall
	b.seal()
}

// Beq branches to taken when a == c; the remaining helpers follow suit.
func (b *Block) Beq(a, c isa.Reg, taken, fall *Block)  { b.Br(isa.OpBeq, a, c, taken, fall) }
func (b *Block) Bne(a, c isa.Reg, taken, fall *Block)  { b.Br(isa.OpBne, a, c, taken, fall) }
func (b *Block) Blt(a, c isa.Reg, taken, fall *Block)  { b.Br(isa.OpBlt, a, c, taken, fall) }
func (b *Block) Bge(a, c isa.Reg, taken, fall *Block)  { b.Br(isa.OpBge, a, c, taken, fall) }
func (b *Block) Bltu(a, c isa.Reg, taken, fall *Block) { b.Br(isa.OpBltu, a, c, taken, fall) }
func (b *Block) Bgeu(a, c isa.Reg, taken, fall *Block) { b.Br(isa.OpBgeu, a, c, taken, fall) }

// Jmp appends an unconditional jump terminator and seals the block.
func (b *Block) Jmp(target *Block) {
	b.append(isa.Instr{Op: isa.OpJmp})
	b.TakenTarget = target
	b.seal()
}

// Call appends a call terminator to callee, continuing in cont.
func (b *Block) Call(callee *Function, cont *Block) {
	b.append(isa.Instr{Op: isa.OpCall})
	b.CallTarget = callee
	b.FallTarget = cont
	b.seal()
}

// Ret appends a return terminator and seals the block.
func (b *Block) Ret() {
	b.append(isa.Instr{Op: isa.OpRet})
	b.seal()
}

// Halt appends a program-end terminator and seals the block.
func (b *Block) Halt() {
	b.append(isa.Instr{Op: isa.OpHalt})
	b.seal()
}

// Validate checks structural invariants: non-empty blocks, exactly one
// terminator per block placed last, targets present where required, and an
// entry function that never returns via Ret.
func (p *Program) Validate() error {
	if p.Entry == nil {
		return fmt.Errorf("ir: program %q has no entry function", p.Name)
	}
	for _, f := range p.Funcs {
		if len(f.Blocks) == 0 {
			return fmt.Errorf("ir: function %q has no blocks", f.Name)
		}
		for bi, b := range f.Blocks {
			if b.Idx != bi {
				return fmt.Errorf("ir: %s.%s has stale index %d (want %d)", f.Name, b.Label, b.Idx, bi)
			}
			if len(b.Instrs) == 0 {
				return fmt.Errorf("ir: %s.%s is empty", f.Name, b.Label)
			}
			for i, in := range b.Instrs {
				isLast := i == len(b.Instrs)-1
				if in.Op.IsTerminator() != isLast {
					return fmt.Errorf("ir: %s.%s instr %d (%s): terminator placement", f.Name, b.Label, i, in)
				}
			}
			t := b.Terminator()
			switch {
			case t.Op.IsBranch():
				if b.TakenTarget == nil || b.FallTarget == nil {
					return fmt.Errorf("ir: %s.%s branch missing targets", f.Name, b.Label)
				}
			case t.Op == isa.OpJmp:
				if b.TakenTarget == nil {
					return fmt.Errorf("ir: %s.%s jmp missing target", f.Name, b.Label)
				}
			case t.Op == isa.OpCall:
				if b.CallTarget == nil || b.FallTarget == nil {
					return fmt.Errorf("ir: %s.%s call missing callee or continuation", f.Name, b.Label)
				}
			case t.Op == isa.OpRet && f == p.Entry:
				return fmt.Errorf("ir: entry function %q returns via ret; use halt", f.Name)
			}
		}
	}
	return nil
}

// String renders the program as readable assembly for debugging.
func (p *Program) String() string {
	s := ""
	for _, f := range p.Funcs {
		s += fmt.Sprintf("func %s:\n", f.Name)
		for _, b := range f.Blocks {
			head := ""
			if b.RegionHead {
				head = " <region>"
			}
			s += fmt.Sprintf("  %s:%s\n", b.Label, head)
			for _, in := range b.Instrs {
				s += "    " + in.String() + "\n"
			}
		}
	}
	return s
}
