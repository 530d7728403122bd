// Monte-Carlo seed sweep: the same (workload, scheme) matrix as the
// speedup figures, but across many power-trace seeds per cell, so each
// speedup is reported as a mean with a 95% confidence interval instead of
// a single-timeline point estimate. Every (workload, scheme, seed) is an
// ordinary runMatrix cell.
package exp

import (
	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SweepCell is one (workload, scheme) cell of a seed sweep: the speedup
// over NVP aggregated across seeds.
type SweepCell struct {
	Workload string
	Kind     arch.Kind
	// N is the number of seeds contributing; Mean and Half are the mean
	// speedup over NVP (same seed, same timeline) and the half-width of
	// its 95% Student-t confidence interval.
	N    int
	Mean float64
	Half float64
}

// SweepResult is the outcome of a seed-sweep experiment.
type SweepResult struct {
	Profile trace.Profile
	Seeds   int
	Kinds   []arch.Kind
	Names   []string
	Cells   map[cell]SweepCell
}

// Get returns the aggregated cell for (workload, kind).
func (r *SweepResult) Get(name string, k arch.Kind) SweepCell {
	return r.Cells[cell{name, k}]
}

// SeedSweep runs every workload on NVP plus the requested kinds under
// `c.Seeds` power-trace seeds of the profile (seeds c.Seed through
// c.Seed+c.Seeds-1) and aggregates per-seed speedups over NVP into
// mean ± 95% CI per cell.
//
// Each seed of each cell is its own runMatrix cell, so a sweep has the
// matrix's resilience contract at per-seed granularity: a failed seed is
// reported as its own *CellError carrying its seed, healthy seeds'
// results stand, and with a journal attached every completed seed is
// durable under the identity the figure matrices use — a sweep
// interrupted and rerun resumes seed by seed.
func (c *Context) SeedSweep(profile trace.Profile, kinds []arch.Kind) (*SweepResult, error) {
	seeds := max(c.Seeds, 1)
	m, err := c.runMatrix(kinds, &profile, c.Params, seeds)
	if err != nil {
		return nil, err
	}

	res := &SweepResult{Profile: profile, Seeds: seeds,
		Kinds: withNVP(kinds)[1:], Names: m.Names, Cells: map[cell]SweepCell{}}
	spd := make([]float64, seeds)
	for _, name := range res.Names {
		base := m.Results[cell{name, arch.NVP}]
		for _, k := range res.Kinds {
			for i, r := range m.Results[cell{name, k}] {
				spd[i] = float64(base[i].TimeNs) / float64(r.TimeNs)
			}
			mean, half := stats.MeanCI(spd)
			res.Cells[cell{name, k}] = SweepCell{Workload: name, Kind: k,
				N: seeds, Mean: mean, Half: half}
		}
	}

	c.printf("seed sweep under %s — speedups over NVP, mean ±95%% CI over %d seeds\n",
		profile, seeds)
	c.printf("%-13s", "benchmark")
	for _, k := range res.Kinds {
		c.printf(" %16v", k)
	}
	c.printf("\n")
	for _, name := range res.Names {
		c.printf("%-13s", name)
		for _, k := range res.Kinds {
			sc := res.Get(name, k)
			c.printf("      %5.2f ±%4.2f", sc.Mean, sc.Half)
		}
		c.printf("\n")
	}
	c.printf("\n")
	return res, nil
}

// Sweep is the seed-sweep experiment as the sweepexp command runs it:
// the Figure 6 configuration (RF-Home harvest, the four evaluated
// schemes) across c.Seeds seeds.
func (c *Context) Sweep() (*SweepResult, error) {
	return c.SeedSweep(trace.RFHome, arch.EvalKinds())
}
