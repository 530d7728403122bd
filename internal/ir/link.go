package ir

import (
	"fmt"

	"repro/internal/isa"
)

// Linked is a program laid out as flat executable code with all control
// transfer targets resolved to code indices ("PCs").
type Linked struct {
	Prog *Program
	Code []isa.Instr
	// Dec is the predecoded dispatch table, position-matched to Code.
	// It is built once here so every simulation of the binary — and
	// every scheme sharing it out of the compile cache — dispatches
	// through the dense class table instead of re-inspecting opcodes.
	Dec []isa.Decoded
	// EntryPC is the PC execution starts at.
	EntryPC int32
	// FuncStart[i] is the first PC of Prog.Funcs[i].
	FuncStart []int32
	// PCBlock[pc] is the block the instruction at pc was emitted from;
	// synthetic fall-through jumps belong to the block they follow.
	PCBlock []*Block
}

// Link lays out blocks in creation order per function, resolves branch,
// jump, and call targets, inserts fall-through jumps where the layout
// requires them, and patches every save.pc immediate with the PC of the
// instruction that follows its region.end (the next region's first real
// instruction).
func Link(p *Program) (*Linked, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &Linked{Prog: p, FuncStart: make([]int32, len(p.Funcs))}

	// First pass: compute block start PCs, accounting for synthetic jumps.
	blockPC := make(map[*Block]int32)
	pc := int32(0)
	for fi, f := range p.Funcs {
		l.FuncStart[fi] = pc
		for bi, b := range f.Blocks {
			blockPC[b] = pc
			pc += int32(len(b.Instrs))
			if needFallJump(f, bi) {
				pc++
			}
		}
	}

	// Second pass: emit and patch.
	l.Code = make([]isa.Instr, 0, pc)
	l.PCBlock = make([]*Block, 0, pc)
	emit := func(in isa.Instr, b *Block) {
		l.Code = append(l.Code, in)
		l.PCBlock = append(l.PCBlock, b)
	}
	for _, f := range p.Funcs {
		for bi, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op.IsBranch(), in.Op == isa.OpJmp:
					in.Target = blockPC[b.TakenTarget]
				case in.Op == isa.OpCall:
					in.Target = l.FuncStart[b.CallTarget.Idx]
				case in.Op == isa.OpSavePC:
					// The next region begins right after the
					// region.end that follows this save.pc.
					in.Imm = int64(len(l.Code)) + 2
				}
				emit(in, b)
			}
			if needFallJump(f, bi) {
				emit(isa.Instr{Op: isa.OpJmp, Target: blockPC[b.FallTarget]}, b)
			}
		}
	}
	l.EntryPC = l.FuncStart[p.Entry.Idx]
	l.Dec = isa.Predecode(l.Code)
	return l, nil
}

// needFallJump reports whether block i of f needs a synthetic jump to reach
// its fall-through successor because the successor is not laid out next.
func needFallJump(f *Function, i int) bool {
	b := f.Blocks[i]
	t := b.Terminator()
	if !t.Op.IsBranch() && t.Op != isa.OpCall {
		return false
	}
	return i+1 >= len(f.Blocks) || f.Blocks[i+1] != b.FallTarget
}

// Disasm renders the linked code with PCs, function labels, and block
// labels for debugging.
func (l *Linked) Disasm() string {
	funcAt := map[int32]string{}
	for i, f := range l.Prog.Funcs {
		funcAt[l.FuncStart[i]] = f.Name
	}
	s := ""
	var prev *Block
	for pc, in := range l.Code {
		if name, ok := funcAt[int32(pc)]; ok {
			s += fmt.Sprintf("%s:\n", name)
		}
		if b := l.PCBlock[pc]; b != prev {
			s += fmt.Sprintf("  .%s:\n", b.Label)
			prev = b
		}
		s += fmt.Sprintf("  %5d  %s\n", pc, in)
	}
	return s
}
