package ir

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/isa"
)

// twoBlockProgram builds: entry -> (beq r0,r1 ? exit : body), body -> exit.
func twoBlockProgram(t *testing.T) (*Program, *Function) {
	t.Helper()
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(0, 1)
	en.Beq(0, 1, exit, body)
	body.AddI(2, 2, 1)
	body.Jmp(exit)
	exit.Halt()
	return p, f
}

func TestValidateOK(t *testing.T) {
	p, _ := twoBlockProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesEmptyBlock(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	f.Entry().Halt()
	f.NewBlock("orphan") // left empty
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for empty block")
	}
}

func TestValidateCatchesEntryRet(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	f.Entry().Ret()
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for entry function returning")
	}
}

func TestValidateCatchesMissingTarget(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.append(isa.Instr{Op: isa.OpJmp}) // raw append: no target
	if err := p.Validate(); err == nil {
		t.Fatal("expected error for jmp without target")
	}
}

func TestSealedBlockPanics(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.Halt()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic appending to sealed block")
		}
	}()
	en.Nop()
}

func TestLinkResolvesTargets(t *testing.T) {
	p, _ := twoBlockProgram(t)
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// entry: movi, beq; body: addi, jmp; exit: halt.
	if len(l.Code) != 5 {
		t.Fatalf("code len = %d: %s", len(l.Code), l.Disasm())
	}
	beq := l.Code[1]
	if beq.Op != isa.OpBeq || beq.Target != 4 {
		t.Errorf("beq target = %d, want 4", beq.Target)
	}
	jmp := l.Code[3]
	if jmp.Op != isa.OpJmp || jmp.Target != 4 {
		t.Errorf("jmp target = %d, want 4", jmp.Target)
	}
}

func TestLinkInsertsFallthroughJump(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	exit := f.NewBlock("exit") // laid out immediately after entry
	body := f.NewBlock("body") // fall target laid out NOT adjacent
	en.Beq(0, 0, exit, body)
	exit.Halt()
	body.Jmp(exit)
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// After the beq a synthetic jmp to body must appear.
	if l.Code[1].Op != isa.OpJmp {
		t.Fatalf("expected synthetic jmp after branch, got %v\n%s", l.Code[1].Op, l.Disasm())
	}
}

func TestLinkCalls(t *testing.T) {
	p := NewProgram("t")
	callee := p.NewFunc("leaf")
	p.SetEntry(nil) // reset: first NewFunc became entry
	main := p.NewFunc("main")
	p.SetEntry(main)
	callee.Entry().Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.Call(callee, cont)
	cont.Halt()
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	// Layout: leaf.ret at 0, main.call at 1, cont.halt at 2.
	call := l.Code[1]
	if call.Op != isa.OpCall || call.Target != 0 {
		t.Fatalf("call target = %d\n%s", call.Target, l.Disasm())
	}
	if l.EntryPC != 1 {
		t.Errorf("entry pc = %d", l.EntryPC)
	}
}

func TestSavePCPatching(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.Nop()
	// Simulate compiler boundary code mid-stream via raw appends.
	en.append(isa.Instr{Op: isa.OpSavePC})
	en.append(isa.Instr{Op: isa.OpRegionEnd})
	en.Nop()
	en.Halt()
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	if l.Code[1].Op != isa.OpSavePC || l.Code[1].Imm != 3 {
		t.Errorf("save.pc imm = %d, want 3 (pc after region.end)", l.Code[1].Imm)
	}
}

func TestSplitAt(t *testing.T) {
	p := NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.Nop()
	en.Nop()
	en.AddI(1, 1, 1)
	en.Halt()
	nb := f.SplitAt(en, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(en.Instrs) != 3 || en.Instrs[2].Op != isa.OpJmp || en.TakenTarget != nb {
		t.Errorf("head after split: %v", en.Instrs)
	}
	if len(nb.Instrs) != 2 || nb.Instrs[0].Op != isa.OpAddI || nb.Instrs[1].Op != isa.OpHalt {
		t.Errorf("tail after split: %v", nb.Instrs)
	}
	if f.Blocks[1] != nb {
		t.Error("split block not laid out after head")
	}
}

func TestSuccs(t *testing.T) {
	p, f := twoBlockProgram(t)
	_ = p
	en := f.Entry()
	succs := en.Succs(nil)
	if len(succs) != 2 {
		t.Fatalf("branch succs = %d", len(succs))
	}
	exit := f.Blocks[2]
	if len(exit.Succs(nil)) != 0 {
		t.Error("halt block has successors")
	}
}

func TestAllocLayout(t *testing.T) {
	p := NewProgram("t")
	a := p.Alloc(8)
	b := p.Alloc(3) // rounds to 8
	c := p.Alloc(16)
	if a != DataBase || b != DataBase+8 || c != DataBase+16 {
		t.Errorf("allocs: %d %d %d", a, b, c)
	}
	if p.DataSize != 32 {
		t.Errorf("data size = %d", p.DataSize)
	}
	base := p.AllocWords([]int64{7, 8})
	if len(p.Inits) != 1 || p.Inits[0].Addr != base || len(p.Inits[0].Data) != 16 || p.Inits[0].Data[8] != 8 {
		t.Errorf("inits: %+v", p.Inits)
	}
}

// TestLinkBuildsImage: the linked image holds the data inits, coalesced
// into byte runs in init order, then the recovery PC slot.
func TestLinkBuildsImage(t *testing.T) {
	p, _ := twoBlockProgram(t)
	base := p.AllocWords([]int64{7, 8}) // one 16-byte run
	p.InitByte(p.Alloc(8), 9)           // adjacent: extends it
	far := p.Alloc(16) + 8
	p.InitWord(far, -1) // past a hole: a new run
	p.InitWord(base, 5) // a re-init: its own run, loaded later
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	word := func(v int64) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	want := []ImageRun{
		{base, append(append(word(7), word(8)...), 9)},
		{far, word(-1)},
		{base, word(5)},
		{PCSlotAddr, word(int64(l.EntryPC))},
	}
	if len(l.Image) != len(want) {
		t.Fatalf("image has %d runs, want %d: %+v", len(l.Image), len(want), l.Image)
	}
	for i, r := range l.Image {
		if r.Addr != want[i].Addr || string(r.Data) != string(want[i].Data) {
			t.Errorf("run %d = %#x %v, want %#x %v", i, r.Addr, r.Data, want[i].Addr, want[i].Data)
		}
	}
}

func TestCkptSlotAddr(t *testing.T) {
	if CkptSlotAddr(0) != CkptBase || CkptSlotAddr(15) != CkptBase+120 {
		t.Error("checkpoint slot addressing")
	}
	if CkptBase+8*isa.NumRegs > DataBase {
		t.Error("checkpoint array overlaps data segment")
	}
}

func TestDisasmMentionsLabels(t *testing.T) {
	p, _ := twoBlockProgram(t)
	l, err := Link(p)
	if err != nil {
		t.Fatal(err)
	}
	d := l.Disasm()
	for _, want := range []string{"main:", ".entry:", ".body:", ".exit:"} {
		if !strings.Contains(d, want) {
			t.Errorf("disasm missing %q:\n%s", want, d)
		}
	}
}
