package exp

import (
	"repro/internal/arch"
	"repro/internal/persist"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig12Result holds the Figure 12 distributions.
type Fig12Result struct {
	RegionSizes     *stats.Hist // dynamic instructions per region
	StoresPerRegion *stats.Hist // dynamic stores per region
	MeanRegionSize  float64
	MeanStores      float64
}

// Fig12 reproduces Figure 12: CDFs of dynamic region size and store count
// per region across all benchmarks (SweepCache, outage-free, threshold 64).
func (c *Context) Fig12() (*Fig12Result, error) {
	m, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, nil, c.Params, 1)
	if err != nil {
		return nil, err
	}
	r := &Fig12Result{
		RegionSizes:     stats.NewHist(sim.RegionHistMax),
		StoresPerRegion: stats.NewHist(c.Params.StoreThreshold + 1),
	}
	for _, n := range m.Names {
		res := m.Get(n, arch.SweepEmptyBit)
		if err := r.RegionSizes.Merge(res.RegionSizes); err != nil {
			return nil, err
		}
		if err := r.StoresPerRegion.Merge(res.Arch.StoresPerRegion); err != nil {
			return nil, err
		}
	}
	r.MeanRegionSize = r.RegionSizes.Mean()
	r.MeanStores = r.StoresPerRegion.Mean()

	c.printf("Figure 12 — region size and store count distributions (dynamic)\n")
	c.printf("mean region size: %.2f insts   mean stores/region: %.2f\n", r.MeanRegionSize, r.MeanStores)
	c.printf("region-size quantiles: p50=%d p90=%d p99=%d\n",
		r.RegionSizes.Quantile(0.5), r.RegionSizes.Quantile(0.9), r.RegionSizes.Quantile(0.99))
	c.printf("stores/region quantiles: p50=%d p90=%d p99=%d\n\n",
		r.StoresPerRegion.Quantile(0.5), r.StoresPerRegion.Quantile(0.9), r.StoresPerRegion.Quantile(0.99))
	return r, nil
}

// ICountResult is Section 6.5's instruction-count comparison.
type ICountResult struct {
	ReplayOverSweep float64 // dynamic instructions, geomean ratio
	SweepOverNVSRAM float64
}

// ICount reproduces Section 6.5: ReplayCache executes ~1.64x SweepCache's
// instructions; SweepCache ~15% more than NVSRAM.
func (c *Context) ICount() (*ICountResult, error) {
	m, err := c.runMatrix([]arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.SweepEmptyBit}, nil, c.Params, 1)
	if err != nil {
		return nil, err
	}
	var rs, sn []float64
	for _, n := range m.Names {
		rep := float64(m.Get(n, arch.ReplayCache).Counts.Executed)
		swp := float64(m.Get(n, arch.SweepEmptyBit).Counts.Executed)
		nvs := float64(m.Get(n, arch.NVSRAM).Counts.Executed)
		rs = append(rs, rep/swp)
		sn = append(sn, swp/nvs)
	}
	r := &ICountResult{ReplayOverSweep: stats.Geomean(rs), SweepOverNVSRAM: stats.Geomean(sn)}
	c.printf("Section 6.5 — dynamic instruction counts\n")
	c.printf("ReplayCache / SweepCache: %.2fx   SweepCache / NVSRAM: %.2fx (+%.1f%%)\n\n",
		r.ReplayOverSweep, r.SweepOverNVSRAM, 100*(r.SweepOverNVSRAM-1))
	return r, nil
}

// Fig13Result is the backup/restore energy breakdown.
type Fig13Result struct {
	// BackupPct/RestorePct: backup and restore energy as a percentage of
	// NVP's total consumed energy, per scheme (Figure 13's bars).
	BackupPct  map[arch.Kind]float64
	RestorePct map[arch.Kind]float64
	// TotalPct: each scheme's total energy normalized to NVP's
	// (Section 6.6 prose).
	TotalPct map[arch.Kind]float64
}

var fig13Kinds = []arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.SweepEmptyBit}

// Fig13 reproduces Figure 13 and the Section 6.6 totals under RFOffice.
func (c *Context) Fig13() (*Fig13Result, error) {
	pr := trace.RFOffice
	m, err := c.runMatrix(fig13Kinds, &pr, c.Params, 1)
	if err != nil {
		return nil, err
	}
	r := &Fig13Result{
		BackupPct:  map[arch.Kind]float64{},
		RestorePct: map[arch.Kind]float64{},
		TotalPct:   map[arch.Kind]float64{},
	}
	for _, k := range fig13Kinds {
		var bk, rs, tot, nvpTot, nvpBkRs float64
		for _, n := range m.Names {
			led := m.Get(n, k).Ledger
			bk += led.Backup
			rs += led.Restore
			tot += led.Total()
			nvpLed := m.Get(n, arch.NVP).Ledger
			nvpTot += nvpLed.Total()
			nvpBkRs += nvpLed.Backup + nvpLed.Restore
		}
		// Figure 13 normalizes each scheme's backup/restore energy to
		// NVP's backup/restore energy (its bars exceed the schemes'
		// Section 6.6 total-energy percentages, which are normalized to
		// NVP's total).
		r.BackupPct[k] = 100 * bk / nvpBkRs
		r.RestorePct[k] = 100 * rs / nvpBkRs
		r.TotalPct[k] = 100 * tot / nvpTot
	}
	c.printf("Figure 13 / Section 6.6 — energy vs NVP (RFOffice)\n")
	c.printf("%-12s %9s %10s %9s\n", "scheme", "backup%", "restore%", "total%")
	for _, k := range fig13Kinds {
		c.printf("%-12v %9.2f %10.2f %9.2f\n", k, r.BackupPct[k], r.RestorePct[k], r.TotalPct[k])
	}
	c.printf("\n")
	return r, nil
}

// Fig15Result holds per-trace cache miss rates.
type Fig15Result struct {
	// MissRate[profile][kind] in percent.
	MissRate map[trace.Profile]map[arch.Kind]float64
}

var fig15Kinds = []arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.NVSRAME, arch.SweepEmptyBit}

// Fig15 reproduces Figure 15: L1D miss rates across power traces.
func (c *Context) Fig15() (*Fig15Result, error) {
	r := &Fig15Result{MissRate: map[trace.Profile]map[arch.Kind]float64{}}
	c.printf("Figure 15 — cache miss rate (%%) per trace\n")
	c.printf("%-10s %12s %10s %10s %12s\n", "trace", "ReplayCache", "NVSRAM", "NVSRAM-E", "SweepCache")
	for _, pr := range trace.Profiles() {
		m, err := c.runMatrix(fig15Kinds, &pr, c.Params, 1)
		if err != nil {
			return nil, err
		}
		r.MissRate[pr] = map[arch.Kind]float64{}
		c.printf("%-10s", pr)
		for _, k := range fig15Kinds {
			var hits, misses uint64
			for _, n := range m.Names {
				res := m.Get(n, k)
				hits += res.CacheHits
				misses += res.CacheMisses
			}
			mr := 100 * float64(misses) / float64(hits+misses)
			r.MissRate[pr][k] = mr
			c.printf(" %*.2f", colw(k), mr)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return r, nil
}

// Fig16Result holds NVM write counts normalized to NVSRAM.
type Fig16Result struct {
	// Normalized[profile][kind] = NVM writes / NVSRAM's NVM writes.
	Normalized map[trace.Profile]map[arch.Kind]float64
}

// Fig16 reproduces Figure 16: NVM writes normalized to NVSRAM per trace.
func (c *Context) Fig16() (*Fig16Result, error) {
	r := &Fig16Result{Normalized: map[trace.Profile]map[arch.Kind]float64{}}
	c.printf("Figure 16 — NVM writes normalized to NVSRAM\n")
	c.printf("%-10s %12s %10s %10s %12s\n", "trace", "ReplayCache", "NVSRAM", "NVSRAM-E", "SweepCache")
	for _, pr := range trace.Profiles() {
		m, err := c.runMatrix(fig15Kinds, &pr, c.Params, 1)
		if err != nil {
			return nil, err
		}
		writes := func(k arch.Kind) float64 {
			var tot float64
			for _, n := range m.Names {
				res := m.Get(n, k)
				// Line writes plus word-granular writes expressed in
				// line-equivalents, plus JIT backup line traffic.
				tot += float64(res.NVMLineWrites) + float64(res.NVMWrites)/8 +
					float64(res.Arch.LinesBackedUp)
			}
			return tot
		}
		base := writes(arch.NVSRAM)
		r.Normalized[pr] = map[arch.Kind]float64{}
		c.printf("%-10s", pr)
		for _, k := range fig15Kinds {
			v := writes(k) / base
			r.Normalized[pr][k] = v
			c.printf(" %*.2f", colw(k), v)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return r, nil
}

// HWCostResult is Section 6.9's accounting.
type HWCostResult struct {
	Bits int
}

// HWCost reproduces Section 6.9: SweepCache's extra state beyond the two
// persist buffers for the default 4 kB cache — 134 bits.
func (c *Context) HWCost() *HWCostResult {
	lines := c.Params.CacheSize / 64
	r := &HWCostResult{Bits: persist.HardwareCostBits(lines)}
	c.printf("Section 6.9 — hardware cost: %d bits (2 empty-bits + 4 phase bits + 2x%d-bit WBI tables)\n\n",
		r.Bits, lines)
	return r
}

// DegradationResult is the Section 2.2 capacitor-degradation ablation.
type DegradationResult struct {
	// Slowdown of NVSRAM when its backup threshold is raised by 20%/40%
	// of the backup-to-Vmin margin headroom.
	Slowdown20 float64
	Slowdown40 float64
}

// Degradation reproduces the Section 2.2 observation: raising the JIT
// backup voltage threshold (as capacitor degradation demands) slows
// JIT-checkpoint designs down substantially.
func (c *Context) Degradation() (*DegradationResult, error) {
	pr := trace.RFOffice
	run := func(extra float64) (float64, error) {
		p := c.Params
		p.VBackupBoost = extra
		m, err := c.runMatrix([]arch.Kind{arch.NVSRAM}, &pr, p, 1)
		if err != nil {
			return 0, err
		}
		var tot float64
		for _, n := range m.Names {
			tot += float64(m.Get(n, arch.NVSRAM).TimeNs)
		}
		return tot, nil
	}
	base, err := run(0)
	if err != nil {
		return nil, err
	}
	t20, err := run(0.20)
	if err != nil {
		return nil, err
	}
	t40, err := run(0.40)
	if err != nil {
		return nil, err
	}
	r := &DegradationResult{Slowdown20: t20 / base, Slowdown40: t40 / base}
	c.printf("Section 2.2 — capacitor degradation (backup threshold raised)\n")
	c.printf("+20%%: %.2fx slowdown   +40%%: %.2fx slowdown\n\n", r.Slowdown20, r.Slowdown40)
	return r, nil
}

// ThresholdResult is the Section 6.4 store-threshold study.
type ThresholdResult struct {
	Thresholds []int
	// MeanStores[threshold] = average dynamic stores per region.
	MeanStores map[int]float64
	// Speedup[threshold] = outage-free geomean speedup over NVP.
	Speedup map[int]float64
}

// Threshold reproduces Section 6.4's store-threshold paragraph: average
// dynamic store counts barely move across thresholds 32-256 because the
// callsite and loop-header boundaries dominate.
func (c *Context) Threshold() (*ThresholdResult, error) {
	ths := []int{32, 64, 128, 256}
	r := &ThresholdResult{Thresholds: ths, MeanStores: map[int]float64{}, Speedup: map[int]float64{}}
	c.printf("Section 6.4 — store threshold sensitivity (outage-free)\n")
	c.printf("%-10s %12s %10s\n", "threshold", "avg stores", "speedup")
	for _, th := range ths {
		p := c.Params
		p.StoreThreshold = th
		m, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, nil, p, 1)
		if err != nil {
			return nil, err
		}
		h := stats.NewHist(th + 1)
		for _, n := range m.Names {
			if err := h.Merge(m.Get(n, arch.SweepEmptyBit).Arch.StoresPerRegion); err != nil {
				return nil, err
			}
		}
		r.MeanStores[th] = h.Mean()
		r.Speedup[th] = m.GeomeanSpeedup(arch.SweepEmptyBit, nil)
		c.printf("%-10d %12.2f %10.2f\n", th, r.MeanStores[th], r.Speedup[th])
	}
	c.printf("\n")
	return r, nil
}

// Table1 prints the simulation configuration.
func (c *Context) Table1() {
	p := c.Params
	c.printf("Table 1 — simulation configuration\n")
	c.printf("Vmax/Vmin: %.1f/%.1f V  NVP backup/restore: %.1f/%.1f V  NVSRAM: 3.2/3.4 V  Sweep restore: 3.3 V\n",
		p.Vmax, p.Vmin, p.VBackup, p.VRestore)
	c.printf("cache: %d B, %d-way   capacitor: %s   NVM: %d MB ReRAM, %d/%d ns write/read\n",
		p.CacheSize, p.CacheWays, capLabel(p.CapacitorF), p.NVMSize>>20, p.NVMWriteNs, p.NVMReadNs)
	c.printf("persist buffers: 2 x %d entries   propagation delay: %.1f/%.1f us (JIT), -/%.1f us (Sweep)\n\n",
		p.StoreThreshold, float64(p.BackupDelayNs)/1e3, float64(p.RestoreDelayNs)/1e3,
		float64(p.SweepRestoreDelayNs)/1e3)
}
