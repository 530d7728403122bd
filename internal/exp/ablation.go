package exp

import (
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/trace"
)

// AblationResult isolates the contribution of each SweepCache design
// choice that DESIGN.md calls out: the dual-buffer region-level
// parallelism (Section 3.3, Figure 3), the empty-bit search (Section 4.4),
// and the compiler's loop unrolling (Section 4.1).
type AblationResult struct {
	// Geomean speedups over NVP, outage-free and under RFOffice.
	Full         [2]float64 // default SweepCache (Empty-Bit)
	SingleBuffer [2]float64 // Figure 3a: no region-level parallelism
	NVMSearch    [2]float64 // no empty-bit
	NoUnroll     [2]float64 // UnrollCap = 1
	Inline       [2]float64 // + Section 5 small-function inlining
	// Efficiency of the full design vs the single-buffer baseline
	// quantifies how much persistence latency dual-buffering hides.
	SingleBufferEff float64
}

// Ablation runs each single-change variant against the full design.
func (c *Context) Ablation() (*AblationResult, error) {
	r := &AblationResult{}
	pr := trace.RFOffice

	variants := []struct {
		name string
		mod  func(p config.Params) config.Params
		kind arch.Kind
		dst  *[2]float64
	}{
		{"full", func(p config.Params) config.Params { return p }, arch.SweepEmptyBit, &r.Full},
		{"single-buffer", func(p config.Params) config.Params { p.SweepSingleBuffer = true; return p }, arch.SweepEmptyBit, &r.SingleBuffer},
		{"nvm-search", func(p config.Params) config.Params { return p }, arch.SweepNVMSearch, &r.NVMSearch},
		{"no-unroll", func(p config.Params) config.Params { p.CompilerUnrollCap = 1; return p }, arch.SweepEmptyBit, &r.NoUnroll},
		{"inline", func(p config.Params) config.Params { p.CompilerInline = true; return p }, arch.SweepEmptyBit, &r.Inline},
	}

	c.printf("Ablation — SweepCache design choices (geomean speedup over NVP)\n")
	c.printf("%-14s %12s %12s\n", "variant", "outage-free", "RFOffice")
	for _, v := range variants {
		p := v.mod(c.Params)
		free, err := c.runMatrix([]arch.Kind{v.kind}, nil, p, 1)
		if err != nil {
			return nil, err
		}
		out, err := c.runMatrix([]arch.Kind{v.kind}, &pr, p, 1)
		if err != nil {
			return nil, err
		}
		v.dst[0] = free.GeomeanSpeedup(v.kind, nil)
		v.dst[1] = out.GeomeanSpeedup(v.kind, nil)
		if v.name == "single-buffer" {
			// How much wall-clock the dual buffer saves outage-free.
			var tp, tw int64
			for _, n := range free.Names {
				res := free.Get(n, v.kind)
				tp += res.Arch.TpNs
				tw += res.Arch.TwaitNs
			}
			if tp > 0 {
				r.SingleBufferEff = float64(tp-tw) / float64(tp)
			}
		}
		c.printf("%-14s %12.2f %12.2f\n", v.name, v.dst[0], v.dst[1])
	}
	c.printf("\n")
	return r, nil
}
