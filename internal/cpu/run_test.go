package cpu

// Run's stop rules, one case per rule, on a straight-line program small
// enough to count by hand. The whole-run digests in internal/sim pin the
// rules' combined effect; these cases pin each rule alone.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/isa"
)

// stopProg is pure compute (0-2), a store (3), a region end (4), a
// 12-cycle divide (5), compute (6) and halt (7). Under timing every
// instruction takes 2 ns except the divide's 24 ns: 38 ns in all.
var stopProg = []isa.Instr{
	{Op: isa.OpMovI, Dst: 1, Imm: 64},
	{Op: isa.OpAddI, Dst: 2, Src1: 2, Imm: 1},
	{Op: isa.OpAddI, Dst: 2, Src1: 2, Imm: 1},
	{Op: isa.OpSt, Src1: 1, Src2: 2},
	{Op: isa.OpRegionEnd},
	{Op: isa.OpDiv, Dst: 3, Src1: 2, Src2: 2},
	{Op: isa.OpAddI, Dst: 4, Src1: 3, Imm: 1},
	{Op: isa.OpHalt},
}

// unbounded returns a Control with no stop rule but halt, charging one
// joule per instruction to led.
func unbounded(led *energy.Ledger, regions *[]int) Control {
	return Control{
		EInstr:      1,
		Led:         led,
		Max:         math.MaxUint64,
		Budget:      math.Inf(1),
		SegDeadline: math.MaxInt64,
		MaxInstrNs:  math.MaxInt64,
		OnRegionEnd: func(n int) { *regions = append(*regions, n) },
	}
}

func TestRunStopRules(t *testing.T) {
	const now = 1000
	always := func() bool { return true }
	cases := []struct {
		name    string
		charged bool // fetches enter the memory system
		set     func(ctl *Control)
		wantN   uint64 // instructions retired
		wantNs  int64
		halted  bool
		regions []int // region lengths reported
		ri      int   // running region length returned
	}{
		{"max", false, func(ctl *Control) { ctl.Max = 2; ctl.Budget = 1e9 }, 2, 4, false, nil, 2},
		{"halt", false, func(ctl *Control) { ctl.Budget = 1e9 }, 8, 38, true, []int{4}, 3},
		// One joule per instruction: the third reaches 2.5 J, before the
		// store at 3 could force an exact comparison.
		{"budget on pure compute", false, func(ctl *Control) { ctl.Budget = 2.5 }, 3, 6, false, nil, 3},
		{"budget measured from LedStart", false, func(ctl *Control) { ctl.LedStart = -1; ctl.Budget = 2.5 }, 2, 4, false, nil, 2},
		// The clock reaches 1006 >= 1005 after the third instruction.
		{"segment deadline", false, func(ctl *Control) { ctl.SegDeadline = now + 5 }, 3, 6, false, nil, 3},
		// Only the divide is at least 24 ns long.
		{"latency bound", false, func(ctl *Control) { ctl.MaxInstrNs = 24 }, 6, 34, false, []int{4}, 1},
		// The query always says yes, but is consulted only after an
		// instruction that entered the memory system: the store, or the
		// first instruction when its fetch is charged.
		{"backup request", false, func(ctl *Control) { ctl.NeedsBackup = always }, 4, 8, false, nil, 4},
		{"backup request, fetch charged", true, func(ctl *Control) { ctl.NeedsBackup = always }, 1, 2, false, nil, 1},
		{"unbounded to halt", false, func(ctl *Control) {}, 8, 38, true, []int{4}, 3},
		{"unbounded to max", false, func(ctl *Control) { ctl.Max = 6 }, 6, 34, false, []int{4}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(stopProg, 0)
			c.SetFetchFree(!tc.charged)
			var led energy.Ledger
			var regions []int
			ctl := unbounded(&led, &regions)
			tc.set(&ctl)
			ns, ri := c.Run(now, newFlatMem(), timing, &ctl)
			if c.Counts.Executed != tc.wantN || ns != tc.wantNs || c.Halted != tc.halted {
				t.Errorf("retired %d in %d ns (halted %v), want %d in %d ns (halted %v)",
					c.Counts.Executed, ns, c.Halted, tc.wantN, tc.wantNs, tc.halted)
			}
			if !tc.halted && c.PC != int64(tc.wantN) {
				t.Errorf("pc = %d, want %d", c.PC, tc.wantN)
			}
			if led.Compute != float64(tc.wantN) {
				t.Errorf("compute charge = %v J, want %d", led.Compute, tc.wantN)
			}
			if !reflect.DeepEqual(regions, tc.regions) || ri != tc.ri {
				t.Errorf("regions %v, running %d; want %v, running %d", regions, ri, tc.regions, tc.ri)
			}
		})
	}
}

// TestRunCarriesRegions splits one run into two calls at every point: the
// region lengths reported, and the one returned at halt, must not depend
// on where the calls meet.
func TestRunCarriesRegions(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.OpRegionEnd},
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.OpAddI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.OpFence},
		{Op: isa.OpHalt},
	}
	// The run enters with 5 instructions of an earlier region.
	want := []int{5 + 2, 3}
	for split := uint64(1); split < uint64(len(prog)); split++ {
		c := New(prog, 0)
		var led energy.Ledger
		var regions []int
		ctl := unbounded(&led, &regions)
		ctl.RegionInstrs, ctl.Max = 5, split
		_, ctl.RegionInstrs = c.Run(0, newFlatMem(), timing, &ctl)
		ctl.Max = math.MaxUint64
		_, ri := c.Run(0, newFlatMem(), timing, &ctl)
		if !c.Halted || !reflect.DeepEqual(regions, want) || ri != 1 {
			t.Errorf("split at %d: halted %v, regions %v, running %d; want halted, %v, running 1",
				split, c.Halted, regions, ri, want)
		}
	}
}
