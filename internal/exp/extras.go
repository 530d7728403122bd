package exp

import (
	"repro/internal/arch"
	"repro/internal/trace"
)

// VminResult reproduces Table 1's footnote 1: because SweepCache only
// needs a single-threshold comparator, it can afford a lower brown-out
// voltage than the JIT designs' monitors; the paper reports an extra
// 10-15% performance from Vmin = 1.8 V.
type VminResult struct {
	Default float64 // geomean speedup over NVP at Vmin = 2.8 V
	Low     float64 // geomean speedup over NVP at Vmin = 1.8 V
	GainPct float64
}

// Vmin runs SweepCache under RFOffice with the paper's two Vmin settings.
// The NVP baseline keeps Vmin = 2.8 V in both runs, as in the footnote.
func (c *Context) Vmin() (*VminResult, error) {
	pr := trace.RFOffice
	base, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, &pr, c.Params, 1)
	if err != nil {
		return nil, err
	}
	p := c.Params
	p.SweepVmin = 1.8
	low, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, &pr, p, 1)
	if err != nil {
		return nil, err
	}
	r := &VminResult{}
	// Both matrices share the same NVP configuration, so comparing each
	// sweep against its own baseline is apples-to-apples.
	r.Default = base.GeomeanSpeedup(arch.SweepEmptyBit, nil)
	r.Low = low.GeomeanSpeedup(arch.SweepEmptyBit, nil)
	r.GainPct = 100 * (r.Low/r.Default - 1)
	c.printf("Table 1 footnote — SweepCache Vmin sensitivity (RFOffice)\n")
	c.printf("Vmin 2.8 V: %.2fx   Vmin 1.8 V: %.2fx   gain: %.1f%%\n\n",
		r.Default, r.Low, r.GainPct)
	return r, nil
}

// WTResult places the naive write-through cache of Figure 1(b) on the
// Figure 5/7 axes, quantifying Section 2.2's claim that per-store NVM
// writes make it pay "a high persistence overhead".
type WTResult struct {
	OutageFree float64 // geomean speedup over NVP
	RFOffice   float64
}

// WT evaluates the write-through baseline.
func (c *Context) WT() (*WTResult, error) {
	free, err := c.runMatrix([]arch.Kind{arch.WTVCache}, nil, c.Params, 1)
	if err != nil {
		return nil, err
	}
	pr := trace.RFOffice
	out, err := c.runMatrix([]arch.Kind{arch.WTVCache}, &pr, c.Params, 1)
	if err != nil {
		return nil, err
	}
	r := &WTResult{
		OutageFree: free.GeomeanSpeedup(arch.WTVCache, nil),
		RFOffice:   out.GeomeanSpeedup(arch.WTVCache, nil),
	}
	c.printf("Figure 1(b) baseline — WT-VCache geomean speedup over NVP\n")
	c.printf("outage-free: %.2fx   RFOffice: %.2fx\n\n", r.OutageFree, r.RFOffice)
	return r, nil
}
