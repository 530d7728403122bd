// Package compiler implements the SweepCache compiler (Section 4.1): region
// formation guided by the persist-buffer size, live-out register
// checkpointing and loop unrolling — plus the ReplayCache lowering (clwb
// after every store, fence at region ends) and a plain mode used by the
// JIT-checkpoint baselines. Every loop header is a region boundary, which
// bounds a region's length but not its energy; the paper's EH-model split
// of regions too costly for one capacitor charge is not implemented.
//
// Region boundaries are materialized as instruction sequences at the start
// of every region-head block:
//
//	[ckpt.st lr]   only at function entries; persists the return address
//	save.pc        stores the next region's first PC to the recovery slot
//	region.end     architecture flushes dirty lines and switches buffers
//
// The two (or three) boundary stores execute before region.end and are
// therefore quarantined in the *previous* region's persist buffer, exactly
// like that region's ordinary stores. Dynamically this reproduces the
// paper's protocol: the PC saved at the end of region N points at region
// N+1's first real instruction, on whichever control-flow path was taken.
package compiler

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Mode selects the code transformation applied before linking.
type Mode int

const (
	// ModePlain performs no transformation; used by NVP, WT-VCache,
	// NVSRAM, NVSRAM-E and NvMR, which rely on JIT checkpointing.
	ModePlain Mode = iota
	// ModeSweep applies the full SweepCache pipeline.
	ModeSweep
	// ModeReplay applies the ReplayCache lowering: regions bounded at
	// callsites and loop headers with a fence at each boundary, and a
	// clwb after every store.
	ModeReplay
)

func (m Mode) String() string {
	switch m {
	case ModePlain:
		return "plain"
	case ModeSweep:
		return "sweep"
	case ModeReplay:
		return "replay"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures a compilation.
type Options struct {
	Mode Mode

	// StoreThreshold is the persist-buffer size in entries; no region may
	// contain more stores than this along any path (Section 4.5).
	// Defaults to 64.
	StoreThreshold int

	// UnrollCap bounds the loop-unrolling factor (Section 4.1, Figure 4).
	// 1 disables unrolling. Defaults to 6.
	UnrollCap int

	// DisablePeephole skips the dead-code peephole cleanup that normally
	// runs before region formation in sweep and replay modes.
	DisablePeephole bool

	// InlineSmallFuncs enables the Section 5 future-work optimization:
	// leaf functions up to inlineMaxInstrs instructions are inlined at
	// their callsites, removing un-mergeable callsite boundaries.
	InlineSmallFuncs bool
}

const (
	// unrollMaxBodyInstrs skips unrolling of loop bodies larger than this.
	unrollMaxBodyInstrs = 160
	// inlineMaxInstrs bounds inlinable callee size.
	inlineMaxInstrs = 48
)

// withDefaults fills zero fields with defaults.
func (o Options) withDefaults() Options {
	if o.StoreThreshold == 0 {
		o.StoreThreshold = 64
	}
	if o.UnrollCap == 0 {
		o.UnrollCap = 6
	}
	return o
}

// Stats summarizes the static outcome of a compilation.
type Stats struct {
	Mode          Mode
	Regions       int // region-head count (dynamic entry implied)
	CkptStores    int // checkpoint stores inserted
	FenceCount    int // fences inserted (replay mode)
	ClwbCount     int // clwbs inserted (replay mode)
	UnrolledLoops int
	InlinedCalls  int   // callsites inlined (Section 5 optimization)
	DeadRemoved   int   // dead instructions removed by the peephole pass
	SplitBoundary int   // boundaries added by store-threshold splitting
	StaticInstrs  int   // linked code size
	MaxPathStores []int // per region, worst-case store count incl. boundary stores
	RegionSizeMax []int // per region, worst-case instruction count
}

// Result is a compiled, linked program plus its static statistics.
type Result struct {
	Linked *ir.Linked
	Stats  Stats
}

// Compile transforms p in place according to opt and links it. The program
// must come fresh from its builder; compiling the same *ir.Program twice is
// an error in the caller (transformations are destructive).
func Compile(p *ir.Program, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	st := Stats{Mode: opt.Mode}

	switch opt.Mode {
	case ModePlain:
		// Only the O3-style cleanup; no persistence lowering.
		if !opt.DisablePeephole {
			st.DeadRemoved = peephole(p)
		}
	case ModeSweep:
		if !opt.DisablePeephole {
			st.DeadRemoved = peephole(p)
		}
		if opt.InlineSmallFuncs {
			st.InlinedCalls = inlineSmallFuncs(p)
		}
		if opt.UnrollCap > 1 {
			st.UnrolledLoops = unrollLoops(p, opt)
		}
		if err := formRegions(p, opt, &st, true); err != nil {
			return nil, err
		}
	case ModeReplay:
		if !opt.DisablePeephole {
			st.DeadRemoved = peephole(p)
		}
		if err := formRegions(p, opt, &st, false); err != nil {
			return nil, err
		}
		lowerReplay(p, &st)
	default:
		return nil, fmt.Errorf("compiler: unknown mode %v", opt.Mode)
	}

	l, err := ir.Link(p)
	if err != nil {
		return nil, err
	}
	st.StaticInstrs = len(l.Code)
	return &Result{Linked: l, Stats: st}, nil
}

// lowerReplay inserts a clwb after every store and a fence at the start of
// every region-head block (the region-formation pass has already marked
// heads and did not insert SweepCache boundary code in replay mode).
func lowerReplay(p *ir.Program, st *Stats) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			out := make([]isa.Instr, 0, len(b.Instrs)*2)
			if b.RegionHead {
				out = append(out, isa.Instr{Op: isa.OpFence})
				st.FenceCount++
			}
			for _, in := range b.Instrs {
				out = append(out, in)
				if in.Op == isa.OpSt || in.Op == isa.OpStB {
					out = append(out, isa.Instr{
						Op:   isa.OpClwb,
						Src1: in.Src1,
						Imm:  in.Imm,
					})
					st.ClwbCount++
				}
			}
			b.Instrs = out
		}
	}
}
