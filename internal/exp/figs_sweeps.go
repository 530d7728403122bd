package exp

import (
	"strconv"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sweepKinds are the three bars of the sensitivity figures.
var sweepKinds = []arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.SweepEmptyBit}

// CacheSweepResult is Figure 8's data.
type CacheSweepResult struct {
	Sizes []int
	// Speedup[size][kind] = geomean speedup over NVP with that cache.
	Speedup map[int]map[arch.Kind]float64
}

// Fig8 reproduces Figure 8: speedups over NVP across cache sizes under
// the RFOffice trace.
func (c *Context) Fig8() (*CacheSweepResult, error) {
	sizes := []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10}
	r := &CacheSweepResult{Sizes: sizes, Speedup: map[int]map[arch.Kind]float64{}}
	pr := trace.RFOffice
	c.printf("Figure 8 — geomean speedups over NVP across cache sizes (RFOffice)\n")
	c.printf("%-8s %12s %10s %12s\n", "cache", "ReplayCache", "NVSRAM", "SweepCache")
	for _, sz := range sizes {
		p := c.Params
		p.CacheSize = sz
		m, err := c.runMatrix(sweepKinds, &pr, p, 1)
		if err != nil {
			return nil, err
		}
		r.Speedup[sz] = map[arch.Kind]float64{}
		c.printf("%-8s", sizeLabel(sz))
		for _, k := range sweepKinds {
			g := m.GeomeanSpeedup(k, nil)
			r.Speedup[sz][k] = g
			c.printf(" %*.2f", colw(k), g)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return r, nil
}

func sizeLabel(sz int) string {
	if sz >= 1<<10 {
		return strconv.Itoa(sz>>10) + "kB"
	}
	return strconv.Itoa(sz) + "B"
}

// CapacitorSweepResult is the data behind Figure 9 and Table 2.
type CapacitorSweepResult struct {
	Caps []float64
	// Relative[c][kind]: speedup over an NVP with the same capacitor.
	Relative map[float64]map[arch.Kind]float64
	// Absolute[c][kind]: speedup over the fixed 100 nF NVP baseline.
	Absolute map[float64]map[arch.Kind]float64
	// Outages[c][kind]: average outage count (Table 2; NVP included).
	Outages map[float64]map[arch.Kind]float64
}

// capLabel renders a capacitance.
func capLabel(f float64) string {
	switch {
	case f >= 1e-3:
		return strconv.Itoa(int(f*1e3+0.5)) + "mF"
	case f >= 1e-6:
		return strconv.Itoa(int(f*1e6+0.5)) + "uF"
	default:
		return strconv.Itoa(int(f*1e9+0.5)) + "nF"
	}
}

// Fig9 reproduces Figure 9 (capacitor sensitivity) and Table 2 (average
// power outages).
func (c *Context) Fig9() (*CapacitorSweepResult, error) {
	return c.capacitorSweep(c.Params, "Figure 9 / Table 2 — capacitor sweep (RFOffice)")
}

// capacitorSweep is the shared engine of Figure 9 and Figure 11.
func (c *Context) capacitorSweep(p0 config.Params, title string) (*CapacitorSweepResult, error) {
	caps := []float64{100e-9, 470e-9, 1e-6, 10e-6, 100e-6, 1e-3}
	pr := trace.RFOffice
	r := &CapacitorSweepResult{
		Caps:     caps,
		Relative: map[float64]map[arch.Kind]float64{},
		Absolute: map[float64]map[arch.Kind]float64{},
		Outages:  map[float64]map[arch.Kind]float64{},
	}

	// Fixed 100 nF NVP baseline for the "absolute" curve.
	pBase := p0
	pBase.CapacitorF = 100e-9
	mBase, err := c.runMatrix(nil, &pr, pBase, 1)
	if err != nil {
		return nil, err
	}

	c.printf("%s\n", title)
	c.printf("%-7s %12s %10s %12s %12s | avg outages: %s\n",
		"cap", "ReplayCache", "NVSRAM", "SweepCache", "Sweep(abs)", "NVP Replay NVSRAM Sweep")
	for _, cf := range caps {
		p := p0
		p.CapacitorF = cf
		m, err := c.runMatrix(sweepKinds, &pr, p, 1)
		if err != nil {
			return nil, err
		}
		r.Relative[cf] = map[arch.Kind]float64{}
		r.Absolute[cf] = map[arch.Kind]float64{}
		r.Outages[cf] = map[arch.Kind]float64{}
		// Outage averages include the NVP baseline.
		for _, k := range append([]arch.Kind{arch.NVP}, sweepKinds...) {
			var tot float64
			for _, n := range m.Names {
				tot += float64(m.Get(n, k).Outages)
			}
			r.Outages[cf][k] = tot / float64(len(m.Names))
		}
		for _, k := range sweepKinds {
			r.Relative[cf][k] = m.GeomeanSpeedup(k, nil)
			// Absolute: this scheme at cf over NVP fixed at 100 nF.
			var xs []float64
			for _, n := range m.Names {
				xs = append(xs, float64(mBase.Get(n, arch.NVP).TimeNs)/float64(m.Get(n, k).TimeNs))
			}
			r.Absolute[cf][k] = stats.Geomean(xs)
		}
		c.printf("%-7s %12.2f %10.2f %12.2f %12.2f | %6.1f %6.1f %6.1f %6.1f\n",
			capLabel(cf),
			r.Relative[cf][arch.ReplayCache], r.Relative[cf][arch.NVSRAM],
			r.Relative[cf][arch.SweepEmptyBit], r.Absolute[cf][arch.SweepEmptyBit],
			r.Outages[cf][arch.NVP], r.Outages[cf][arch.ReplayCache],
			r.Outages[cf][arch.NVSRAM], r.Outages[cf][arch.SweepEmptyBit])
	}
	c.printf("\n")
	return r, nil
}

// Fig11Result holds the two propagation-delay settings of Figure 11.
type Fig11Result struct {
	SlowSweep *CapacitorSweepResult // (a): SweepCache delayed like JIT designs
	FastJIT   *CapacitorSweepResult // (b): JIT designs sped up to the literature's best
}

// Fig11 reproduces Figure 11: capacitor sweeps under modified propagation
// delays. (a) sets SweepCache's restore delay to the JIT designs' 10.3 us;
// (b) shortens the JIT designs' delays to 0.5/3.0 us.
func (c *Context) Fig11() (*Fig11Result, error) {
	pa := c.Params
	pa.SweepRestoreDelayNs = 10300
	a, err := c.capacitorSweep(pa, "Figure 11a — SweepCache delay raised to JIT designs'")
	if err != nil {
		return nil, err
	}

	pb := c.Params
	pb.BackupDelayNs = 500
	pb.RestoreDelayNs = 3000
	b, err := c.capacitorSweep(pb, "Figure 11b — JIT designs' delays reduced (0.5/3.0 us)")
	if err != nil {
		return nil, err
	}
	return &Fig11Result{SlowSweep: a, FastJIT: b}, nil
}

// Fig14Result compares SweepCache against NvMR (Section 6.7).
type Fig14Result struct {
	Caps []float64
	// SpeedupNvMR/SpeedupSweep: geomean speedups over NVP per capacitor.
	SpeedupNvMR  map[float64]float64
	SpeedupSweep map[float64]float64
	// EnergySaving: SweepCache's total-energy saving vs NvMR (%).
	EnergySaving map[float64]float64
}

// Fig14 reproduces Figure 14: SweepCache vs NvMR across capacitor sizes.
func (c *Context) Fig14() (*Fig14Result, error) {
	caps := []float64{470e-9, 1e-6, 2e-6, 5e-6, 10e-6, 100e-6, 1e-3}
	pr := trace.RFOffice
	kinds := []arch.Kind{arch.NvMR, arch.SweepEmptyBit}
	r := &Fig14Result{
		Caps:         caps,
		SpeedupNvMR:  map[float64]float64{},
		SpeedupSweep: map[float64]float64{},
		EnergySaving: map[float64]float64{},
	}
	c.printf("Figure 14 — SweepCache vs NvMR (RFOffice)\n")
	c.printf("%-7s %10s %10s %14s\n", "cap", "NvMR", "Sweep", "energy-saving%")
	for _, cf := range caps {
		p := c.Params
		p.CapacitorF = cf
		m, err := c.runMatrix(kinds, &pr, p, 1)
		if err != nil {
			return nil, err
		}
		r.SpeedupNvMR[cf] = m.GeomeanSpeedup(arch.NvMR, nil)
		r.SpeedupSweep[cf] = m.GeomeanSpeedup(arch.SweepEmptyBit, nil)
		var savings []float64
		for _, n := range m.Names {
			en := m.Get(n, arch.NvMR).Ledger.Total()
			es := m.Get(n, arch.SweepEmptyBit).Ledger.Total()
			savings = append(savings, 100*(en-es)/en)
		}
		var mean float64
		for _, s := range savings {
			mean += s
		}
		r.EnergySaving[cf] = mean / float64(len(savings))
		c.printf("%-7s %10.2f %10.2f %14.1f\n", capLabel(cf),
			r.SpeedupNvMR[cf], r.SpeedupSweep[cf], r.EnergySaving[cf])
	}
	c.printf("\n")
	return r, nil
}
