package compiler

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/isa"
)

// unrollLoops enlarges small-bodied loops so that the region formed at the
// loop header holds closer to the store threshold (Section 4.1, Figure 4).
// Unlike classic unrolling it needs no trip count: the whole loop body —
// including the header's exit test — is replicated, and each replica keeps
// every exit edge, so the transformation is semantics-preserving for any
// iteration count. Only the original header remains a loop header (all
// back edges funnel through the replica chain back to it), so region
// formation places one boundary per unrolled iteration group.
//
// Only innermost loops without calls are unrolled: a nested loop header or
// a call-continuation boundary inside the body would defeat the point.
// Returns the number of loops unrolled.
func unrollLoops(p *ir.Program, opt Options) int {
	eff := opt.storeBudget()
	n := 0
	for _, f := range p.Funcs {
		loops := analysis.NaturalLoops(f)
		for _, lp := range loops {
			if hasCall(lp) || !innermost(lp, loops) {
				continue
			}
			spi, instrs := loopWeight(lp)
			if instrs > unrollMaxBodyInstrs {
				continue
			}
			// Store-free loops still carry a header boundary (see
			// initialHeads), and only the boundary's own stores count
			// against the threshold — so they can be unrolled much
			// deeper to amortize the boundary.
			factor := 4 * opt.UnrollCap
			if spi > 0 {
				factor = eff / spi
				if factor > opt.UnrollCap {
					factor = opt.UnrollCap
				}
			} else if factor > eff {
				factor = eff
			}
			if factor < 2 {
				continue
			}
			unrollOne(f, lp, factor)
			n++
		}
	}
	return n
}

func hasCall(lp *analysis.Loop) bool {
	for b := range lp.Blocks {
		if b.Terminator().Op == isa.OpCall {
			return true
		}
	}
	return false
}

// innermost reports whether lp contains no other loop's header.
func innermost(lp *analysis.Loop, all []*analysis.Loop) bool {
	for _, o := range all {
		if o.Header != lp.Header && lp.Blocks[o.Header] {
			return false
		}
	}
	return true
}

// loopWeight returns (stores per iteration, instructions per iteration).
func loopWeight(lp *analysis.Loop) (int, int) {
	s, i := 0, 0
	for b := range lp.Blocks {
		s += storeCount(b)
		i += len(b.Instrs)
	}
	return s, i
}

// unrollOne replicates the whole loop body factor-1 times. Every edge onto
// the header from inside the loop is a back edge (the header dominates the
// whole body), so rewiring is uniform: stage s's back edges enter stage
// s+1's header replica, and the last stage closes the loop onto the
// original header.
func unrollOne(f *ir.Function, lp *analysis.Loop, factor int) {
	hdr := lp.Header
	// Deterministic block order for cloning.
	blocks := make([]*ir.Block, 0, len(lp.Blocks))
	for b := range lp.Blocks {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Idx < blocks[j].Idx })

	// Clone all stages first, from the originals, so every clone's
	// targets still reference original blocks and can be remapped
	// uniformly afterwards.
	cursor := blocks[len(blocks)-1]
	stages := make([]map[*ir.Block]*ir.Block, factor)
	for s := 1; s < factor; s++ {
		m := make(map[*ir.Block]*ir.Block, len(blocks))
		for _, b := range blocks {
			nb := f.NewBlockAfter(cursor, fmt.Sprintf("%s.u%d", b.Label, s+1))
			nb.Instrs = append([]isa.Instr(nil), b.Instrs...)
			nb.TakenTarget = b.TakenTarget
			nb.FallTarget = b.FallTarget
			nb.CallTarget = b.CallTarget
			m[b] = nb
			cursor = nb
		}
		stages[s] = m
	}

	get := func(s int, orig *ir.Block) *ir.Block {
		if s == 0 {
			return orig
		}
		return stages[s][orig]
	}
	for s := 0; s < factor; s++ {
		nextHdr := hdr
		if s+1 < factor {
			nextHdr = stages[s+1][hdr]
		}
		remap := func(t *ir.Block) *ir.Block {
			switch {
			case t == nil || !lp.Blocks[t]:
				return t // exit edge: unchanged
			case t == hdr:
				return nextHdr // back edge: next stage
			default:
				return get(s, t) // intra-iteration edge: same stage
			}
		}
		for _, b := range blocks {
			cb := get(s, b)
			cb.TakenTarget = remap(cb.TakenTarget)
			cb.FallTarget = remap(cb.FallTarget)
		}
	}
}
