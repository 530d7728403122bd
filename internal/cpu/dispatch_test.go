package cpu

// Equivalence for the predecoded interpreter entry points: a core built
// from raw code (New, which predecodes itself) and a core reusing the
// linker's decode table (NewLinked) must retire the same instructions
// with the same costs.

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
)

func TestNewLinkedMatchesNew(t *testing.T) {
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	l, err := ir.Link(w.Build(1))
	if err != nil {
		t.Fatal(err)
	}
	a := New(l.Code, int64(l.EntryPC))
	b := NewLinked(l)
	ma := newFlatMem()
	mb := newFlatMem()
	for step := 0; step < 5_000_000 && !a.Halted; step++ {
		nsA := a.Step(0, ma, timing).Ns
		nsB := b.Step(0, mb, timing).Ns
		if nsA != nsB || a.PC != b.PC {
			t.Fatalf("step %d: (ns=%d, pc=%d) vs (ns=%d, pc=%d)", step, nsA, a.PC, nsB, b.PC)
		}
	}
	if !a.Halted || !b.Halted {
		t.Fatal("cores did not halt")
	}
	if a.Regs != b.Regs || a.Counts != b.Counts {
		t.Errorf("final state diverges:\n%v\n%v", a.Counts, b.Counts)
	}
}
