package exp

import (
	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SpeedupResult is the outcome of one Figure 5/6/7-style experiment.
type SpeedupResult struct {
	Title string
	// PerWorkload[name][kind] = speedup over NVP.
	Matrix *Matrix
	// Geomeans per scheme: MediaBench, MiBench, all.
	GeoMedia map[arch.Kind]float64
	GeoMi    map[arch.Kind]float64
	GeoAll   map[arch.Kind]float64
}

// speedupFigure runs the common shape of Figures 5, 6 and 7.
func (c *Context) speedupFigure(title string, profile *trace.Profile) (*SpeedupResult, error) {
	kinds := arch.EvalKinds()
	m, err := c.runMatrix(kinds, profile, c.Params, 1)
	if err != nil {
		return nil, err
	}
	media, mi := c.suites()
	r := &SpeedupResult{
		Title:    title,
		Matrix:   m,
		GeoMedia: map[arch.Kind]float64{},
		GeoMi:    map[arch.Kind]float64{},
		GeoAll:   map[arch.Kind]float64{},
	}
	for _, k := range kinds {
		r.GeoMedia[k] = m.GeomeanSpeedup(k, media)
		r.GeoMi[k] = m.GeomeanSpeedup(k, mi)
		r.GeoAll[k] = m.GeomeanSpeedup(k, nil)
	}

	c.printf("%s — speedups over NVP\n", title)
	c.printf("%-13s %12s %10s %12s %12s\n", "benchmark", "ReplayCache", "NVSRAM", "Sweep(NVM)", "Sweep(EB)")
	row := func(name string) {
		c.printf("%-13s", name)
		for _, k := range kinds {
			c.printf(" %*.2f", colw(k), m.Speedup(name, k))
		}
		c.printf("\n")
	}
	for _, name := range media {
		row(name)
	}
	c.geoRow("geomean(media)", r.GeoMedia)
	for _, name := range mi {
		row(name)
	}
	c.geoRow("geomean(mi)", r.GeoMi)
	c.geoRow("geomean(all)", r.GeoAll)
	c.printf("\n")
	return r, nil
}

// colw is a scheme column's width in every figure table: the NVSRAM
// columns are 10 wide, all others 12.
func colw(k arch.Kind) int {
	if k == arch.NVSRAM || k == arch.NVSRAME {
		return 10
	}
	return 12
}

func (c *Context) geoRow(label string, g map[arch.Kind]float64) {
	c.printf("%-13s", label)
	for _, k := range arch.EvalKinds() {
		c.printf(" %*.2f", colw(k), g[k])
	}
	c.printf("\n")
}

// Fig5 reproduces Figure 5: outage-free speedups over NVP.
func (c *Context) Fig5() (*SpeedupResult, error) {
	return c.speedupFigure("Figure 5 (no power failure)", nil)
}

// Fig6 reproduces Figure 6: RFHome-trace speedups over NVP.
func (c *Context) Fig6() (*SpeedupResult, error) {
	pr := trace.RFHome
	return c.speedupFigure("Figure 6 (RFHome trace)", &pr)
}

// Fig7 reproduces Figure 7: RFOffice-trace speedups over NVP.
func (c *Context) Fig7() (*SpeedupResult, error) {
	pr := trace.RFOffice
	return c.speedupFigure("Figure 7 (RFOffice trace)", &pr)
}

// Fig10Result holds the per-trace geomean speedups of Figure 10.
type Fig10Result struct {
	// Speedup[profile][kind] = geomean speedup over NVP under profile.
	Speedup map[trace.Profile]map[arch.Kind]float64
}

// fig10Kinds are the three bars of Figure 10.
var fig10Kinds = []arch.Kind{arch.ReplayCache, arch.NVSRAM, arch.SweepEmptyBit}

// Fig10 reproduces Figure 10: speedups over NVP across power traces.
func (c *Context) Fig10() (*Fig10Result, error) {
	r := &Fig10Result{Speedup: map[trace.Profile]map[arch.Kind]float64{}}
	c.printf("Figure 10 — geomean speedups over NVP per power trace\n")
	c.printf("%-10s %12s %10s %12s\n", "trace", "ReplayCache", "NVSRAM", "SweepCache")
	for _, pr := range trace.Profiles() {
		m, err := c.runMatrix(fig10Kinds, &pr, c.Params, 1)
		if err != nil {
			return nil, err
		}
		r.Speedup[pr] = map[arch.Kind]float64{}
		c.printf("%-10s", pr)
		for _, k := range fig10Kinds {
			g := m.GeomeanSpeedup(k, nil)
			r.Speedup[pr][k] = g
			c.printf(" %*.2f", colw(k), g)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return r, nil
}

// ParallelismResult is Section 6.3's efficiency metric.
type ParallelismResult struct {
	OutageFree float64
	WithOutage float64
}

// Parallelism reproduces Section 6.3: average region-level parallelism
// efficiency (Tp - Twait)/Tp outage-free and under RFOffice.
func (c *Context) Parallelism() (*ParallelismResult, error) {
	kinds := []arch.Kind{arch.SweepEmptyBit}
	eff := func(profile *trace.Profile) (float64, error) {
		m, err := c.runMatrix(kinds, profile, c.Params, 1)
		if err != nil {
			return 0, err
		}
		var xs []float64
		for _, n := range m.Names {
			xs = append(xs, m.Get(n, arch.SweepEmptyBit).ParallelismEfficiency())
		}
		return stats.Geomean(xs), nil
	}
	free, err := eff(nil)
	if err != nil {
		return nil, err
	}
	pr := trace.RFOffice
	out, err := eff(&pr)
	if err != nil {
		return nil, err
	}
	r := &ParallelismResult{OutageFree: free, WithOutage: out}
	c.printf("Section 6.3 — region-level parallelism efficiency\n")
	c.printf("outage-free: %.2f%%   with outages (RFOffice): %.2f%%\n\n",
		100*r.OutageFree, 100*r.WithOutage)
	return r, nil
}
