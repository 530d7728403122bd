package compiler

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// storeLoop builds a program with one loop containing stores per
// iteration, the canonical region-formation input.
func storeLoop(storesPerIter, iters int64) *ir.Program {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	arr := p.Alloc(4096)
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(0, 0)
	en.MovI(1, iters)
	en.Jmp(head)
	head.Bge(0, 1, exit, body)
	body.MovI(2, arr)
	for i := int64(0); i < storesPerIter; i++ {
		body.St(2, i*8, 0)
	}
	body.AddI(0, 0, 1)
	body.Jmp(head)
	exit.Halt()
	return p
}

// runSweep runs l outage-free to halt on Sweep-EmptyBit with a persist
// buffer of th entries, and returns its final NVM image's hash. A region
// whose dirty lines overflow the buffer panics the architecture; that
// fails the test, as does a run that does not halt within its bound.
func runSweep(t *testing.T, l *ir.Linked, th int) [32]byte {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("threshold %d: %v", th, r)
		}
	}()
	p := config.Default()
	p.StoreThreshold = th
	res, err := sim.Run(l, arch.New(arch.SweepEmptyBit, p), sim.Options{MaxInstructions: 100_000})
	if err != nil {
		t.Fatalf("threshold %d: %v", th, err)
	}
	if !res.Halted {
		t.Fatalf("threshold %d: did not halt", th)
	}
	return res.NVM.ContentHash()
}

func countOps(l *ir.Linked, op isa.Op) int {
	n := 0
	for _, in := range l.Code {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestPlainModeUntouched(t *testing.T) {
	p := storeLoop(3, 10)
	before := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			before += len(b.Instrs)
		}
	}
	res, err := Compile(p, Options{Mode: ModePlain})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []isa.Op{isa.OpRegionEnd, isa.OpSavePC, isa.OpCkptSt, isa.OpClwb, isa.OpFence} {
		if countOps(res.Linked, op) != 0 {
			t.Errorf("plain mode emitted %v", op)
		}
	}
}

func TestSweepModeBoundaryShape(t *testing.T) {
	p := storeLoop(3, 10)
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 64, UnrollCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Linked
	nEnd := countOps(l, isa.OpRegionEnd)
	nSave := countOps(l, isa.OpSavePC)
	if nEnd == 0 || nEnd != nSave {
		t.Fatalf("region.end=%d save.pc=%d", nEnd, nSave)
	}
	// Every save.pc is immediately followed by its region.end, and its
	// immediate points right past it.
	for pc, in := range l.Code {
		if in.Op == isa.OpSavePC {
			if l.Code[pc+1].Op != isa.OpRegionEnd {
				t.Errorf("save.pc at %d not followed by region.end", pc)
			}
			if in.Imm != int64(pc+2) {
				t.Errorf("save.pc imm = %d at pc %d", in.Imm, pc)
			}
		}
	}
	// The loop counter r0 is live around the loop: it must be
	// checkpointed somewhere.
	if countOps(l, isa.OpCkptSt) == 0 {
		t.Error("no checkpoint stores inserted")
	}
}

func TestReplayModeLowering(t *testing.T) {
	p := storeLoop(3, 10)
	res, err := Compile(p, Options{Mode: ModeReplay, StoreThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Linked
	stores := countOps(l, isa.OpSt) + countOps(l, isa.OpStB)
	if got := countOps(l, isa.OpClwb); got != stores {
		t.Errorf("clwb=%d stores=%d", got, stores)
	}
	if countOps(l, isa.OpFence) == 0 {
		t.Error("no fences inserted")
	}
	if countOps(l, isa.OpCkptSt) != 0 || countOps(l, isa.OpRegionEnd) != 0 {
		t.Error("replay mode emitted sweep boundary code")
	}
}

// TestThresholdSplitting: a block with more stores than the threshold must
// be split so that no region exceeds it.
func TestThresholdSplitting(t *testing.T) {
	p := storeLoop(60, 4)
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 32, UnrollCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SplitBoundary == 0 {
		t.Fatal("no threshold splits for 60 stores with threshold 32")
	}
	for i, n := range res.Stats.MaxPathStores {
		if n > 32 {
			t.Errorf("region %d worst-case stores %d > threshold", i, n)
		}
	}
}

// TestTinyThresholdStillConverges: splitting distributes register
// definitions (and therefore checkpoint stores) across the sub-regions, so
// region formation converges even under heavy checkpoint pressure with a
// tiny threshold — and the bound must still hold.
func TestTinyThresholdStillConverges(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	arr := p.Alloc(4096)
	en := f.Entry()
	head := f.NewBlock("head")
	body := f.NewBlock("body")
	exit := f.NewBlock("exit")
	en.MovI(0, 0)
	en.MovI(1, 8)
	en.Jmp(head)
	head.Bge(0, 1, exit, body)
	body.MovI(13, arr)
	for r := isa.Reg(2); r <= 11; r++ {
		body.AddI(r, r, 1) // live across iterations
		body.St(13, int64(r)*8, r)
	}
	body.AddI(0, 0, 1)
	body.Jmp(head)
	exit.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 6, UnrollCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range res.Stats.MaxPathStores {
		if n > 6 {
			t.Errorf("region %d worst-case stores %d > 6", i, n)
		}
	}
}

// TestMaxPathStoresBound is the compiler's central invariant on every
// workload: no region's worst-case store count may exceed the threshold.
func TestMaxPathStoresBound(t *testing.T) {
	for _, th := range []int{32, 64} {
		for _, w := range workloads.All() {
			res, err := Compile(w.Build(1), Options{Mode: ModeSweep, StoreThreshold: th})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for i, n := range res.Stats.MaxPathStores {
				if n > th {
					t.Errorf("%s th=%d: region %d has %d worst-case stores", w.Name, th, i, n)
				}
			}
		}
	}
}

func TestUnrollingPreservesSemanticsShape(t *testing.T) {
	p := storeLoop(2, 10)
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 64, UnrollCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnrolledLoops != 1 {
		t.Fatalf("unrolled = %d", res.Stats.UnrolledLoops)
	}
	// After unrolling there must be exactly one loop header with a store
	// (one region boundary inside the loop).
	f := res.Linked.Prog.Funcs[0]
	loops := analysis.NaturalLoops(f)
	if len(loops) != 1 {
		t.Fatalf("loops after unroll = %d", len(loops))
	}
}

func TestUnrollSkipsLoopsWithCalls(t *testing.T) {
	p := ir.NewProgram("t")
	callee := p.NewFunc("leaf")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	arr := p.Alloc(64)
	ce := callee.Entry()
	ce.MovI(3, arr)
	ce.St(3, 0, 0)
	ce.Ret()
	en := main.Entry()
	head := main.NewBlock("head")
	body := main.NewBlock("body")
	cont := main.NewBlock("cont")
	exit := main.NewBlock("exit")
	en.MovI(0, 0)
	en.MovI(1, 5)
	en.Jmp(head)
	head.Bge(0, 1, exit, body)
	body.Call(callee, cont)
	cont.AddI(0, 0, 1)
	cont.Jmp(head)
	exit.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 64, UnrollCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UnrolledLoops != 0 {
		t.Error("unrolled a loop containing a call")
	}
}

func TestFunctionEntryCheckpointsLR(t *testing.T) {
	p := ir.NewProgram("t")
	callee := p.NewFunc("leaf")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	arr := p.Alloc(64)
	ce := callee.Entry()
	ce.MovI(3, arr)
	ce.St(3, 0, 0)
	ce.Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.Call(callee, cont)
	cont.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep, StoreThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The callee entry block must begin [ckpt.st lr, save.pc, region.end].
	eb := callee.Entry()
	if eb.Instrs[0].Op != isa.OpCkptSt || eb.Instrs[0].Src2 != isa.LR {
		t.Fatalf("callee entry starts with %v", eb.Instrs[0])
	}
	if eb.Instrs[1].Op != isa.OpSavePC || eb.Instrs[2].Op != isa.OpRegionEnd {
		t.Fatalf("callee entry boundary shape: %v %v", eb.Instrs[1], eb.Instrs[2])
	}
	_ = res
}

// callsAfterStores builds a program whose main function calls an empty
// leaf function after each run of 0, 1, ..., n stores, each store to a
// cache line of its own. A run starts at a call continuation, which is a
// region head, so the region that ends at the leaf's entry holds the
// run's last stores; from n = threshold-2 on, some such region fills its
// store budget, and the leaf's entry boundary charges both save.pc and
// the lr checkpoint to it.
func callsAfterStores(n int) *ir.Program {
	p := ir.NewProgram("t")
	leaf := p.NewFunc("leaf")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	arr := p.Alloc(int64(64 * n))
	leaf.Entry().Ret()
	b := main.Entry()
	for k := 0; k <= n; k++ {
		b.MovI(13, arr)
		b.MovI(1, int64(k))
		for i := 0; i < k; i++ {
			b.St(13, int64(64*i), 1)
		}
		cont := main.NewBlock(fmt.Sprintf("after%d", k))
		b.Call(leaf, cont)
		b = cont
	}
	b.Halt()
	return p
}

// TestFunctionEntryBoundaryFitsThreshold pins the boundary reservation:
// a region ending at a function entry is charged two boundary stores
// (save.pc and the lr checkpoint) beside its own, and all of them must
// fit the persist buffer. A compiler that reserves fewer overflows it
// here, at the least threshold and at a larger one.
func TestFunctionEntryBoundaryFitsThreshold(t *testing.T) {
	for _, th := range []int{3, 8} {
		res, err := Compile(callsAfterStores(th+1), Options{Mode: ModeSweep, StoreThreshold: th, UnrollCap: 1})
		if err != nil {
			t.Fatalf("threshold %d: %v", th, err)
		}
		runSweep(t, res.Linked, th)
	}
}

func TestCompileStatsPopulated(t *testing.T) {
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(w.Build(1), Options{Mode: ModeSweep})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Regions == 0 || st.CkptStores == 0 || st.StaticInstrs == 0 {
		t.Errorf("stats: %+v", st)
	}
	if len(st.MaxPathStores) != st.Regions || len(st.RegionSizeMax) != st.Regions {
		t.Error("per-region stats length mismatch")
	}
}

// TestInlining: the Section 5 pass must remove callsites, preserve
// semantics (identical linked-code behaviour is covered by the fuzz and
// core differential tests; here we check the structural contract), and
// never touch non-leaf or oversized callees.
func TestInlining(t *testing.T) {
	build := func() *ir.Program {
		p := ir.NewProgram("t")
		leaf := p.NewFunc("leaf")
		p.SetEntry(nil)
		main := p.NewFunc("main")
		p.SetEntry(main)
		arr := p.Alloc(256)
		le := leaf.Entry()
		le.MovI(3, arr)
		le.St(3, 0, 2)
		le.AddI(2, 2, 1)
		le.Ret()
		en := main.Entry()
		c1 := main.NewBlock("c1")
		c2 := main.NewBlock("c2")
		en.MovI(2, 5)
		en.Call(leaf, c1)
		c1.Call(leaf, c2)
		c2.MovI(3, arr)
		c2.St(3, 8, 2)
		c2.Halt()
		return p
	}

	plain, err := Compile(build(), Options{Mode: ModeSweep, UnrollCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	inlined, err := Compile(build(), Options{Mode: ModeSweep, UnrollCap: 1, InlineSmallFuncs: true})
	if err != nil {
		t.Fatal(err)
	}
	if inlined.Stats.InlinedCalls != 2 {
		t.Fatalf("inlined %d callsites, want 2", inlined.Stats.InlinedCalls)
	}
	if countOps(inlined.Linked, isa.OpCall) != 0 {
		t.Error("calls remain after inlining")
	}
	if countOps(plain.Linked, isa.OpCall) != 2 {
		t.Error("baseline lost its calls")
	}
	// Inlining removes the callee-entry + continuation boundaries.
	if inlined.Stats.Regions >= plain.Stats.Regions {
		t.Errorf("regions: inlined %d, plain %d", inlined.Stats.Regions, plain.Stats.Regions)
	}
}

// TestInliningSkipsNonLeaf: a callee that itself calls must stay a call.
func TestInliningSkipsNonLeaf(t *testing.T) {
	p := ir.NewProgram("t")
	inner := p.NewFunc("inner")
	outer := p.NewFunc("outer")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	arr := p.Alloc(64)
	ie := inner.Entry()
	ie.MovI(3, arr)
	ie.St(3, 0, 2)
	ie.Ret()
	oe := outer.Entry()
	ocont := outer.NewBlock("cont")
	oe.Call(inner, ocont)
	ocont.Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.Call(outer, cont)
	cont.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep, InlineSmallFuncs: true})
	if err != nil {
		t.Fatal(err)
	}
	// Inlining cascades: once inner is inlined into outer, outer becomes
	// a small leaf and is inlined into main as well — the "aggressive
	// function inlining" the paper points at.
	if got := countOps(res.Linked, isa.OpCall); got != 0 {
		t.Errorf("calls after cascading inlining = %d, want 0", got)
	}
}

// TestInliningRespectsSizeBound: an oversized leaf stays a call.
func TestInliningRespectsSizeBound(t *testing.T) {
	p := ir.NewProgram("t")
	big := p.NewFunc("big")
	p.SetEntry(nil)
	main := p.NewFunc("main")
	p.SetEntry(main)
	be := big.Entry()
	for i := 0; i < 100; i++ {
		be.AddI(2, 2, 1)
	}
	be.Ret()
	en := main.Entry()
	cont := main.NewBlock("cont")
	en.Call(big, cont)
	cont.MovI(3, ir.DataBase)
	cont.St(3, 0, 2)
	cont.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep, InlineSmallFuncs: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := countOps(res.Linked, isa.OpCall); got != 1 {
		t.Errorf("oversized callee inlined (calls = %d)", got)
	}
}

// TestPeepholeRemovesDeadCode: a dead pure definition disappears; live
// ones survive; memory ops are never touched.
func TestPeepholeRemovesDeadCode(t *testing.T) {
	p := ir.NewProgram("t")
	f := p.NewFunc("main")
	arr := p.Alloc(64)
	en := f.Entry()
	en.MovI(1, 42) // dead: overwritten below before any use
	en.MovI(1, 43) // live: stored
	en.Mov(2, 2)   // self-move: dead
	en.MovI(3, arr)
	en.St(3, 0, 1)
	en.MovI(4, 9) // dead: never used, dead at halt
	en.Halt()
	res, err := Compile(p, Options{Mode: ModeSweep})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeadRemoved != 3 {
		t.Errorf("dead removed = %d, want 3", res.Stats.DeadRemoved)
	}
	if got := countOps(res.Linked, isa.OpSt); got != 1 {
		t.Errorf("stores = %d", got)
	}
}

// TestPeepholeKeepsLoopCarriedDefs: a definition used only in the NEXT
// iteration (live around the back edge) must survive. The loop counter's
// AddI is loop-carried, and nothing in the loop is dead, so the peephole
// removes nothing; the program runs to halt and ends in the same memory
// as its build without the peephole.
func TestPeepholeKeepsLoopCarriedDefs(t *testing.T) {
	res, err := Compile(storeLoop(2, 5), Options{Mode: ModeSweep, UnrollCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DeadRemoved != 0 {
		t.Errorf("peephole removed %d instructions from a loop with no dead code", res.Stats.DeadRemoved)
	}
	ref, err := Compile(storeLoop(2, 5), Options{Mode: ModeSweep, UnrollCap: 1, DisablePeephole: true})
	if err != nil {
		t.Fatal(err)
	}
	if runSweep(t, res.Linked, 64) != runSweep(t, ref.Linked, 64) {
		t.Error("final NVM image differs from the build without the peephole")
	}
}
