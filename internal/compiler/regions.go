package compiler

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/isa"
)

// region is a set of blocks of one function executed between two region
// boundaries. The subgraph induced by a region is acyclic because loop
// headers are always region heads.
type region struct {
	head   *ir.Block
	blocks []*ir.Block
	member map[*ir.Block]bool
}

func (r *region) contains(b *ir.Block) bool { return r.member[b] }

// formRegions implements Section 4.1. When sweep is true the full pipeline
// runs: the fixpoint of {checkpoint insertion, store-threshold splitting}
// and boundary-code insertion. Every boundary is placed inside the
// fixpoint, so every region's live-out registers are checkpointed and
// every boundary is a recovery point. When sweep is false only the initial
// boundaries (function entries, call continuations, loop headers) are
// computed and marked, which is what ReplayCache needs.
func formRegions(p *ir.Program, opt Options, st *Stats, sweep bool) error {
	heads := initialHeads(p)

	if sweep {
		// Fixpoint over the circular dependence between checkpoint
		// stores and region boundaries: checkpoint stores count against
		// the store threshold, and moving a boundary changes the
		// live-out sets. Each iteration re-derives checkpoints from
		// scratch and splits any region whose worst-case path exceeds
		// the threshold; the head set only grows, so this terminates.
		// The -2 slack accounts for the save.pc and (at function
		// entries) the lr checkpoint charged to the ending region.
		eff := opt.StoreThreshold - 2
		if eff < 1 {
			eff = 1
		}
		for iter := 0; ; iter++ {
			if iter > 200 {
				// Each region needs room for its checkpoint stores
				// plus the boundary's save.pc/lr stores on top of at
				// least one program store; below that the
				// split/re-checkpoint cycle cannot converge. The
				// paper's smallest evaluated threshold is 32.
				return fmt.Errorf("compiler: store threshold %d too small for %q — regions cannot fit their checkpoint stores", opt.StoreThreshold, p.Name)
			}
			stripCkpts(p)
			lv := analysis.ComputeLiveness(p)
			regions := buildRegions(p, heads)
			st.CkptStores = insertCkpts(lv, regions, heads)
			if !splitOverThreshold(heads, regions, eff, st) {
				break
			}
		}
	}

	// Mark heads and insert boundary code. The program entry function's
	// entry block is an implicit region start: execution begins there
	// with the checkpoint array zeroed (matching the zeroed register
	// file) and the recovery PC slot holding the entry PC.
	final := buildRegions(p, heads)
	for _, r := range final {
		b := r.head
		if b == p.Entry.Entry() {
			continue
		}
		b.RegionHead = true
		if !sweep {
			continue
		}
		prefix := make([]isa.Instr, 0, 3)
		if b == b.Fn.Entry() {
			// Persist the return address as part of the calling
			// region, so recovery of any callee region finds lr's
			// slot current.
			prefix = append(prefix, isa.Instr{Op: isa.OpCkptSt, Src2: isa.LR})
		}
		prefix = append(prefix,
			isa.Instr{Op: isa.OpSavePC},
			isa.Instr{Op: isa.OpRegionEnd},
		)
		b.Instrs = append(prefix, b.Instrs...)
	}

	st.Regions = len(final)
	for _, r := range final {
		stores, instrs := maxPath(r)
		st.MaxPathStores = append(st.MaxPathStores, stores)
		st.RegionSizeMax = append(st.RegionSizeMax, instrs)
	}
	return nil
}

// initialHeads computes the paper's initial boundary set: every function
// entry, every call continuation, and every loop header. The paper's
// Section 4.1 footnote exempts loops without stores from the header
// boundary — the persist buffer cannot overflow there — but a store-free
// loop of unknown trip count inside a region would make that region's
// worst-case length unbounded, so every loop header is a boundary here.
// That bounds a region's length but not its energy: the EH-model split
// (a region must be executable within one capacitor charge) is not
// implemented, and a capacitor too small for some region can livelock a
// Sweep run.
func initialHeads(p *ir.Program) map[*ir.Block]bool {
	heads := map[*ir.Block]bool{}
	for _, f := range p.Funcs {
		heads[f.Entry()] = true
		for _, b := range f.Blocks {
			if b.Terminator().Op == isa.OpCall {
				heads[b.FallTarget] = true
			}
		}
		for _, lp := range analysis.NaturalLoops(f) {
			heads[lp.Header] = true
		}
	}
	return heads
}

// buildRegions partitions each function's reachable blocks into regions: a
// region is every block reachable from its head without crossing another
// head. Regions never cross call or return edges because call
// continuations and function entries are always heads.
func buildRegions(p *ir.Program, heads map[*ir.Block]bool) []*region {
	var regions []*region
	var succs []*ir.Block
	for _, f := range p.Funcs {
		for _, b := range analysis.ReversePostorder(f) {
			if !heads[b] {
				continue
			}
			r := &region{head: b, member: map[*ir.Block]bool{}}
			stack := []*ir.Block{b}
			for len(stack) > 0 {
				n := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if r.member[n] {
					continue
				}
				r.member[n] = true
				r.blocks = append(r.blocks, n)
				succs = n.Succs(succs[:0])
				for _, s := range succs {
					if !heads[s] && !r.member[s] {
						stack = append(stack, s)
					}
				}
			}
			regions = append(regions, r)
		}
	}
	return regions
}

// storeCount counts the instructions of b that occupy a persist-buffer
// entry when the region ends.
func storeCount(b *ir.Block) int {
	n := 0
	for _, in := range b.Instrs {
		if in.Op.IsStore() {
			n++
		}
	}
	return n
}

// maxPath returns the worst-case (store count, instruction count) over all
// paths through the region, via longest-path DP. The region subgraph minus
// edges onto the region's own head (a loop's back edge, which dynamically
// ends the region) is acyclic because all loop headers are region heads.
func maxPath(r *region) (stores, instrs int) {
	memoS := map[*ir.Block]int{}
	memoI := map[*ir.Block]int{}
	var walk func(b *ir.Block) (int, int)
	var succs []*ir.Block
	walk = func(b *ir.Block) (int, int) {
		if s, ok := memoS[b]; ok {
			return s, memoI[b]
		}
		memoS[b] = storeCount(b)
		memoI[b] = len(b.Instrs)
		bestS, bestI := 0, 0
		succs = b.Succs(succs[:0])
		local := append([]*ir.Block(nil), succs...)
		for _, s := range local {
			if !r.contains(s) || s == r.head {
				continue
			}
			ss, si := walk(s)
			if ss > bestS {
				bestS = ss
			}
			if si > bestI {
				bestI = si
			}
		}
		memoS[b] = storeCount(b) + bestS
		memoI[b] = len(b.Instrs) + bestI
		return memoS[b], memoI[b]
	}
	return walk(r.head)
}

// heaviestPath returns the path from the region head maximizing cumulative
// store count.
func heaviestPath(r *region) []*ir.Block {
	memo := map[*ir.Block]int{}
	var weight func(b *ir.Block) int
	var succs []*ir.Block
	weight = func(b *ir.Block) int {
		if w, ok := memo[b]; ok {
			return w
		}
		memo[b] = storeCount(b)
		best := 0
		succs = b.Succs(succs[:0])
		local := append([]*ir.Block(nil), succs...)
		for _, s := range local {
			if r.contains(s) && s != r.head {
				if w := weight(s); w > best {
					best = w
				}
			}
		}
		memo[b] = storeCount(b) + best
		return memo[b]
	}
	weight(r.head)

	path := []*ir.Block{r.head}
	cur := r.head
	for {
		var next *ir.Block
		best := -1
		succs = cur.Succs(succs[:0])
		for _, s := range succs {
			// An edge back onto the region's own head ends the
			// region dynamically; never walk it.
			if r.contains(s) && s != r.head && memo[s] > best {
				best, next = memo[s], s
			}
		}
		if next == nil {
			return path
		}
		path = append(path, next)
		cur = next
	}
}

// splitOverThreshold splits every region whose worst-case store count
// exceeds eff, adding new heads. Reports whether any split happened.
func splitOverThreshold(heads map[*ir.Block]bool, regions []*region, eff int, st *Stats) bool {
	split := false
	for _, r := range regions {
		total, _ := maxPath(r)
		if total <= eff {
			continue
		}
		split = true
		st.SplitBoundary++
		path := heaviestPath(r)
		acc := 0
		placed := false
		for _, b := range path {
			n := storeCount(b)
			if acc+n > eff {
				if b != r.head {
					// Boundary between blocks.
					heads[b] = true
					placed = true
					break
				}
				// The head alone overflows: split it at the
				// instruction after the eff-th store.
				idx := splitIndexAfterStores(b, eff)
				nb := b.Fn.SplitAt(b, idx)
				heads[nb] = true
				placed = true
				break
			}
			acc += n
		}
		if !placed {
			// Defensive: should be unreachable since total > eff
			// guarantees the loop trips.
			panic("compiler: threshold split found no cut point")
		}
	}
	return split
}

// splitIndexAfterStores returns the instruction index just after the n-th
// store of b, clamped to a valid split point.
func splitIndexAfterStores(b *ir.Block, n int) int {
	seen := 0
	for i, in := range b.Instrs {
		if in.Op.IsStore() {
			seen++
			if seen == n {
				idx := i + 1
				if idx >= len(b.Instrs) {
					idx = len(b.Instrs) - 1
				}
				if idx < 1 {
					idx = 1
				}
				return idx
			}
		}
	}
	return len(b.Instrs) - 1
}

// stripCkpts removes previously inserted checkpoint stores so the fixpoint
// can re-derive them from current liveness and boundaries.
func stripCkpts(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op != isa.OpCkptSt {
					kept = append(kept, in)
				}
			}
			b.Instrs = kept
		}
	}
}

// insertCkpts inserts a checkpoint store after the last in-block definition
// of every register that is live-out of the enclosing region (Section 4.1:
// "right after the last update point"). A register defined in several
// blocks of one region is checkpointed in each — slightly more stores than
// a path-sensitive placement, but sound: on any dynamic path the final
// definition is followed by its checkpoint, so the register's slot is
// current at the region boundary. Returns the number inserted.
func insertCkpts(lv *analysis.Liveness, regions []*region, heads map[*ir.Block]bool) int {
	total := 0
	for _, r := range regions {
		liveOut := regionLiveOut(r, lv, heads)
		if liveOut == 0 {
			continue
		}
		for _, b := range r.blocks {
			total += ckptBlock(b, liveOut)
		}
	}
	return total
}

// regionLiveOut unions liveness over every edge that crosses a region
// boundary: edges leaving the region's block set, edges into callees and
// back to callers, and — crucially — edges onto any region head, which
// includes a loop's back edge onto the region's own head (dynamically that
// edge ends the region even though source and target belong to the same
// static region).
func regionLiveOut(r *region, lv *analysis.Liveness, heads map[*ir.Block]bool) analysis.RegSet {
	var out analysis.RegSet
	var succs []*ir.Block
	for _, b := range r.blocks {
		t := b.Terminator()
		switch {
		case t.Op == isa.OpCall:
			out |= lv.EntryIn[b.CallTarget]
			out |= lv.In[b.FallTarget].Remove(isa.LR)
		case t.Op == isa.OpRet:
			out |= lv.ExitLive[b.Fn]
		default:
			succs = b.Succs(succs[:0])
			for _, s := range succs {
				if !r.contains(s) || heads[s] {
					out |= lv.In[s]
				}
			}
		}
	}
	return out
}

// ckptBlock inserts checkpoint stores into b for registers in liveOut whose
// last in-block definition is a plain instruction (the link register
// defined by a call terminator is persisted by the callee-entry lr
// checkpoint instead). Returns the number inserted.
func ckptBlock(b *ir.Block, liveOut analysis.RegSet) int {
	lastDef := [isa.NumRegs]int{}
	for i := range lastDef {
		lastDef[i] = -1
	}
	for i, in := range b.Instrs {
		if in.Op == isa.OpCall {
			continue
		}
		if d := in.Defs(); d >= 0 && liveOut.Has(isa.Reg(d)) {
			lastDef[d] = i
		}
	}
	// Collect insertion points, then rebuild in one pass.
	insertAfter := map[int][]isa.Reg{}
	n := 0
	for rg, idx := range lastDef {
		if idx >= 0 {
			insertAfter[idx] = append(insertAfter[idx], isa.Reg(rg))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	out := make([]isa.Instr, 0, len(b.Instrs)+n)
	for i, in := range b.Instrs {
		out = append(out, in)
		for _, rg := range insertAfter[i] {
			out = append(out, isa.Instr{Op: isa.OpCkptSt, Src2: rg})
		}
	}
	b.Instrs = out
	return n
}
