// Package analysis implements the compiler analyses SweepCache's region
// formation depends on: control-flow predecessors, reverse postorder,
// dominator trees, natural-loop detection, and interprocedural register
// liveness.
//
// Liveness is computed at basic-block granularity, matching the paper's
// observation (Section 4.1) that "liveness analysis is generally conducted
// at the level of basic blocks"; the region-formation pass splits blocks so
// region boundaries always coincide with block starts.
package analysis

import (
	"math/bits"

	"repro/internal/ir"
	"repro/internal/isa"
)

// RegSet is a bitset over the architectural registers.
type RegSet uint32

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool { return s&(1<<r) != 0 }

// Add returns s with r included.
func (s RegSet) Add(r isa.Reg) RegSet { return s | 1<<r }

// Remove returns s without r.
func (s RegSet) Remove(r isa.Reg) RegSet { return s &^ (1 << r) }

// Union returns the union of s and t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount32(uint32(s)) }

// Regs appends the members of s to dst in ascending order.
func (s RegSet) Regs(dst []isa.Reg) []isa.Reg {
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if s.Has(r) {
			dst = append(dst, r)
		}
	}
	return dst
}

// Preds returns, for each block of f (indexed by Block.Idx), its
// predecessor blocks.
func Preds(f *ir.Function) [][]*ir.Block {
	preds := make([][]*ir.Block, len(f.Blocks))
	var succs []*ir.Block
	for _, b := range f.Blocks {
		succs = b.Succs(succs[:0])
		for _, s := range succs {
			preds[s.Idx] = append(preds[s.Idx], b)
		}
	}
	return preds
}

// ReversePostorder returns f's blocks in reverse postorder from the entry.
// Unreachable blocks are omitted.
func ReversePostorder(f *ir.Function) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	var succs []*ir.Block
	dfs = func(b *ir.Block) {
		seen[b.Idx] = true
		succs = b.Succs(succs[:0])
		// Copy: dfs recursion reuses the shared scratch slice.
		local := append([]*ir.Block(nil), succs...)
		for _, s := range local {
			if !seen[s.Idx] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry())
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// DomTree holds immediate dominators for a function's reachable blocks.
type DomTree struct {
	// IDom[b.Idx] is b's immediate dominator, or nil for the entry and
	// unreachable blocks.
	IDom []*ir.Block
	f    *ir.Function
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	for b != nil {
		if a == b {
			return true
		}
		b = d.IDom[b.Idx]
	}
	return false
}

// Dominators computes the dominator tree with the Cooper–Harvey–Kennedy
// iterative algorithm over reverse postorder.
func Dominators(f *ir.Function) *DomTree {
	rpo := ReversePostorder(f)
	rpoNum := make([]int, len(f.Blocks))
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range rpo {
		rpoNum[b.Idx] = i
	}
	preds := Preds(f)
	idom := make([]*ir.Block, len(f.Blocks))
	entry := f.Entry()
	idom[entry.Idx] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for rpoNum[a.Idx] > rpoNum[b.Idx] {
				a = idom[a.Idx]
			}
			for rpoNum[b.Idx] > rpoNum[a.Idx] {
				b = idom[b.Idx]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var newIdom *ir.Block
			for _, p := range preds[b.Idx] {
				if idom[p.Idx] == nil {
					continue // p not yet processed or unreachable
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.Idx] != newIdom {
				idom[b.Idx] = newIdom
				changed = true
			}
		}
	}
	idom[entry.Idx] = nil
	return &DomTree{IDom: idom, f: f}
}

// Loop is one natural loop.
type Loop struct {
	Header *ir.Block
	// Blocks is the loop body including the header, keyed by Block.Idx.
	Blocks map[*ir.Block]bool
	// Latches are the blocks with back edges to Header.
	Latches []*ir.Block
}

// NaturalLoops finds all natural loops of f. Loops sharing a header are
// merged into one Loop.
func NaturalLoops(f *ir.Function) []*Loop {
	dom := Dominators(f)
	preds := Preds(f)
	byHeader := map[*ir.Block]*Loop{}
	var order []*ir.Block

	var succs []*ir.Block
	for _, b := range f.Blocks {
		succs = b.Succs(succs[:0])
		for _, h := range succs {
			if !dom.Dominates(h, b) {
				continue
			}
			// Back edge b -> h.
			lp := byHeader[h]
			if lp == nil {
				lp = &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}}
				byHeader[h] = lp
				order = append(order, h)
			}
			lp.Latches = append(lp.Latches, b)
			// Walk predecessors back from the latch to collect the body.
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if lp.Blocks[n] {
					continue
				}
				lp.Blocks[n] = true
				stack = append(stack, preds[n.Idx]...)
			}
		}
	}
	loops := make([]*Loop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHeader[h])
	}
	return loops
}
