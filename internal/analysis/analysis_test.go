package analysis

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

// diamond builds: entry -> (l | r) -> join -> halt.
func diamond(t *testing.T) (*ir.Program, *ir.Function) {
	t.Helper()
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	l := f.NewBlock("l")
	r := f.NewBlock("r")
	j := f.NewBlock("join")
	en.Beq(0, 1, l, r)
	l.MovI(2, 1)
	l.Jmp(j)
	r.MovI(2, 2)
	r.Jmp(j)
	j.Halt()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, f
}

// loopFn builds: entry -> head; head -> (exit | body); body -> head.
func loopFn(t *testing.T) (*ir.Program, *ir.Function) {
	t.Helper()
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(0, 0)
	en.MovI(1, 10)
	en.Jmp(head)
	head.Bge(0, 1, exit, body)
	body.MovI(3, 5)
	body.St(3, 0, 0) // store so the loop counts for region formation
	body.AddI(0, 0, 1)
	body.Jmp(head)
	exit.Halt()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p, f
}

func TestPreds(t *testing.T) {
	_, f := diamond(t)
	preds := Preds(f)
	if len(preds[3]) != 2 {
		t.Errorf("join preds = %d", len(preds[3]))
	}
	if len(preds[0]) != 0 {
		t.Errorf("entry preds = %d", len(preds[0]))
	}
}

func TestReversePostorder(t *testing.T) {
	_, f := diamond(t)
	rpo := ReversePostorder(f)
	if len(rpo) != 4 {
		t.Fatalf("rpo len = %d", len(rpo))
	}
	if rpo[0] != f.Entry() {
		t.Error("rpo does not start at entry")
	}
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// Join must come after both arms.
	if pos[f.Blocks[3]] < pos[f.Blocks[1]] || pos[f.Blocks[3]] < pos[f.Blocks[2]] {
		t.Error("join ordered before its predecessors")
	}
}

func TestReversePostorderSkipsUnreachable(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	f.Entry().Halt()
	dead := f.NewBlock("dead")
	dead.Halt()
	if got := len(ReversePostorder(f)); got != 1 {
		t.Errorf("rpo includes unreachable: %d", got)
	}
}

func TestDominators(t *testing.T) {
	_, f := diamond(t)
	dom := Dominators(f)
	en, l, r, j := f.Blocks[0], f.Blocks[1], f.Blocks[2], f.Blocks[3]
	if dom.IDom[j.Idx] != en {
		t.Errorf("idom(join) = %v", dom.IDom[j.Idx])
	}
	if !dom.Dominates(en, j) || !dom.Dominates(j, j) {
		t.Error("dominance relation broken")
	}
	if dom.Dominates(l, j) || dom.Dominates(r, j) {
		t.Error("arm should not dominate join")
	}
}

func TestNaturalLoops(t *testing.T) {
	_, f := loopFn(t)
	loops := NaturalLoops(f)
	if len(loops) != 1 {
		t.Fatalf("loops = %d", len(loops))
	}
	lp := loops[0]
	if lp.Header != f.Blocks[1] {
		t.Errorf("header = %v", lp.Header.Label)
	}
	if !lp.Blocks[f.Blocks[2]] || !lp.Blocks[lp.Header] {
		t.Error("loop body membership")
	}
	if lp.Blocks[f.Blocks[3]] {
		t.Error("exit included in loop")
	}
	if len(lp.Latches) != 1 || lp.Latches[0] != f.Blocks[2] {
		t.Error("latch detection")
	}
}

func TestNaturalLoopsNone(t *testing.T) {
	_, f := diamond(t)
	if loops := NaturalLoops(f); len(loops) != 0 {
		t.Errorf("found %d loops in acyclic cfg", len(loops))
	}
}

func TestRegSet(t *testing.T) {
	var s RegSet
	s = s.Add(3).Add(15)
	if !s.Has(3) || !s.Has(15) || s.Has(4) {
		t.Error("membership")
	}
	if s.Count() != 2 {
		t.Errorf("count = %d", s.Count())
	}
	s = s.Remove(3)
	if s.Has(3) {
		t.Error("remove")
	}
	regs := s.Regs(nil)
	if len(regs) != 1 || regs[0] != 15 {
		t.Errorf("regs = %v", regs)
	}
	if s.Union(RegSet(0b1)).Count() != 2 {
		t.Error("union")
	}
}

func TestLivenessStraightLine(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	en := f.Entry()
	en.MovI(1, 7)    // def r1
	en.AddI(2, 1, 1) // use r1, def r2
	en.St(2, 0, 2)   // use r2
	en.Halt()
	lv := ComputeLiveness(p)
	if lv.In[en] != 0 {
		t.Errorf("live-in of entry = %v (nothing should be live-in)", lv.In[en])
	}
}

func TestLivenessLoop(t *testing.T) {
	p, f := loopFn(t)
	lv := ComputeLiveness(p)
	head := f.Blocks[1]
	// r0 (counter) and r1 (limit) are live at the loop head.
	if !lv.In[head].Has(0) || !lv.In[head].Has(1) {
		t.Errorf("head live-in = %v", lv.In[head])
	}
	// r3 is defined in the body before use; not live into the head.
	if lv.In[head].Has(3) {
		t.Error("r3 spuriously live at head")
	}
}

func TestLivenessInterprocedural(t *testing.T) {
	p := ir.NewProgram("t")
	main := p.NewFunc("main")
	callee := p.NewFunc("callee")

	// callee: uses r5, defines r6, returns.
	ce := callee.Entry()
	ce.AddI(6, 5, 1)
	ce.Ret()

	en := main.Entry()
	cont := main.NewBlock("cont")
	en.MovI(5, 42) // argument
	en.MovI(7, 9)  // live across the call
	en.Call(callee, cont)
	cont.St(7, 0, 6) // uses callee result r6 and caller value r7
	cont.Halt()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	lv := ComputeLiveness(p)
	// Callee needs r5 (argument) and lr (to return).
	if !lv.EntryIn[callee].Has(5) || !lv.EntryIn[callee].Has(isa.LR) {
		t.Errorf("callee entry live-in = %v", lv.EntryIn[callee])
	}
	// r6 and r7 are live after the call -> callee exit-live includes them.
	if !lv.ExitLive[callee].Has(6) || !lv.ExitLive[callee].Has(7) {
		t.Errorf("callee exit-live = %v", lv.ExitLive[callee])
	}
	// The analysis never treats a call as killing a register (the callee
	// may or may not define it), so r6 is conservatively live through
	// the call — extra checkpoint stores, never a missed one.
	if !lv.In[en].Has(6) {
		t.Error("expected conservative liveness of r6 through the call")
	}
}

func TestLivenessCallKillsLR(t *testing.T) {
	p := ir.NewProgram("t")
	main := p.NewFunc("main")
	callee := p.NewFunc("callee")
	callee.Entry().Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.Call(callee, cont)
	cont.Halt()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	lv := ComputeLiveness(p)
	// LR is defined by the call, so it must not be live into main's entry.
	if lv.In[en].Has(isa.LR) {
		t.Error("lr live into caller entry despite call defining it")
	}
}
