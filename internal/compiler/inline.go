package compiler

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// inlineSmallFuncs implements the Section 5 optimization the paper leaves
// as future work: "small function inlining [70]" to enlarge regions, since
// callsite boundaries can never be merged away (Section 6.4). Inlining a
// leaf callee removes two region boundaries (callee entry and call
// continuation) per dynamic call.
//
// A callee is inlined when it is a leaf (no calls), below the instruction
// bound, and not the program entry. The callee's blocks are cloned into
// the caller; the call becomes a jump to the cloned entry and every cloned
// ret becomes a jump to the continuation. The link register is left
// untouched — the inlined body no longer needs it, and no program observes
// lr as data.
//
// Returns the number of callsites inlined.
func inlineSmallFuncs(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		// Collect callsites first: inlining appends blocks.
		var sites []*ir.Block
		for _, b := range f.Blocks {
			if b.Terminator().Op == isa.OpCall && inlinable(b.CallTarget, p) {
				sites = append(sites, b)
			}
		}
		for _, b := range sites {
			inlineCall(f, b)
			n++
		}
	}
	return n
}

func inlinable(callee *ir.Function, p *ir.Program) bool {
	if callee == p.Entry {
		return false
	}
	total := 0
	for _, b := range callee.Blocks {
		total += len(b.Instrs)
		if b.Terminator().Op == isa.OpCall {
			return false // not a leaf
		}
	}
	return total <= inlineMaxInstrs
}

// inlineCall splices a clone of b.CallTarget into b's function, replacing
// the call with a jump into the clone and each ret with a jump to the
// continuation.
func inlineCall(f *ir.Function, b *ir.Block) {
	callee := b.CallTarget
	cont := b.FallTarget

	clones := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
	cursor := f.Blocks[len(f.Blocks)-1]
	for i, cb := range callee.Blocks {
		nb := f.NewBlockAfter(cursor, fmt.Sprintf("%s.inl%d.%s", callee.Name, b.Idx, cb.Label))
		_ = i
		nb.Instrs = append([]isa.Instr(nil), cb.Instrs...)
		nb.TakenTarget = cb.TakenTarget
		nb.FallTarget = cb.FallTarget
		nb.CallTarget = cb.CallTarget
		clones[cb] = nb
		cursor = nb
	}
	// Rewire clone-internal edges and convert rets.
	for _, cb := range callee.Blocks {
		nb := clones[cb]
		if t := nb.Instrs[len(nb.Instrs)-1]; t.Op == isa.OpRet {
			nb.Instrs[len(nb.Instrs)-1] = isa.Instr{Op: isa.OpJmp}
			nb.TakenTarget = cont
			continue
		}
		if nb.TakenTarget != nil {
			if c, ok := clones[nb.TakenTarget]; ok {
				nb.TakenTarget = c
			}
		}
		if nb.FallTarget != nil {
			if c, ok := clones[nb.FallTarget]; ok {
				nb.FallTarget = c
			}
		}
	}
	// Replace the call with a jump into the inlined entry.
	b.Instrs[len(b.Instrs)-1] = isa.Instr{Op: isa.OpJmp}
	b.TakenTarget = clones[callee.Entry()]
	b.FallTarget = nil
	b.CallTarget = nil
}
