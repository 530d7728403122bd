package main

import (
	"bytes"
	"math"
	"math/rand"
	"time"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

const (
	// sweepSeeds timelines per cell fill three batches at the default
	// lockstep width.
	sweepSeeds = 24
	sweepWidth = 8
	// sweepProofCells is how many cells the output check re-derives from
	// the scalar engine.
	sweepProofCells = 2
)

// runSeedsweep repeats exp.Context.Sweep as `sweepexp -exp seedsweep`
// runs it: the Figure 6 matrix (every workload on NVP and the four
// evaluated schemes, RF-Home supply) over sweepSeeds timelines per cell,
// batched sweepWidth lanes at a time on the lockstep engine, on timelines
// 1..sweepSeeds. Every repetition starts with cold trace tapes. The seed
// picks the cells the check re-derives; the sweep itself does not vary
// with it.
//
// An operation is one lane (one cell under one seed). The sweep reports
// no per-cell completion, so the latency samples are whole sweeps.
//
// The check: every repetition prints the same table; on a seeded sample
// of cells, the table's mean ±CI equals the one recomputed from scalar
// sim.Run results on the same timelines; and each lane of those cells,
// re-run through sim.RunBatch, has the scalar run's record digest.
func runSeedsweep(cfg *runConfig) (*outcome, error) {
	const base = 1 // sweepexp's default first timeline
	o := &outcome{layers: map[string]float64{}}
	var err error
	if o.setup, err = startupSamples(cfg); err != nil {
		return nil, err
	}

	var tables []string
	var lanesPerUnit int
	var res *exp.SweepResult
	cpu0, start := cpuSeconds(), time.Now()
	o.units, o.window, err = measure(cfg, func(i int) error {
		sp := cfg.spansFor(i)
		trace.FlushSharedTapes()
		c := exp.DefaultContext()
		c.Seed, c.Seeds, c.BatchWidth = base, sweepSeeds, sweepWidth
		var buf bytes.Buffer
		c.Out = &buf
		c.Metrics = telemetry.NewSnapshot()
		s := sp.begin("exp.SeedSweep", "campaign", -1, int64(i))
		r, err := c.Sweep()
		sp.end(s)
		if err != nil {
			return err
		}
		res = r
		tables = append(tables, buf.String())
		snap := c.MetricsSnapshot()
		lanesPerUnit = int(snap.Counters["sim.runs"])
		o.attempted += lanesPerUnit
		o.ops += lanesPerUnit
		o.instrs += snap.Counters["sim.instructions"]
		if i == 0 {
			o.layers["sim.instrs"] = float64(snap.Counters["sim.instructions"])
			o.layers["sim.outages"] = float64(snap.Counters["sim.outages"])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.layers["host.cpu_util"] = cpuUtil(cpu0, cpuSeconds(), time.Since(start).Seconds())
	o.traced = alternating(len(o.units), cfg.traced)
	o.lat = o.units

	rng := rand.New(rand.NewSource(cfg.seed))
	proof, err := proveSweep(rng, res, base, cfg.spans, o.layers)
	if err != nil {
		return nil, err
	}
	o.check = func(corrupt bool) int {
		bad := 0
		for _, t := range tables {
			if t != tables[0] {
				bad += lanesPerUnit
			}
		}
		return bad + proof.mismatches(corrupt)
	}

	if cfg.traced {
		var cells []cellKey
		kinds := append([]arch.Kind{arch.NVP}, arch.EvalKinds()...)
		for _, w := range res.Names {
			for _, k := range kinds {
				for s := int64(0); s < sweepSeeds; s++ {
					cells = append(cells, cellKey{w, k, trace.RFHome.String(), base + s})
				}
			}
		}
		if err := probeLayers(rng, cells, cfg.spans, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepCellProof is one sampled sweep cell, re-derived independently.
type sweepCellProof struct {
	table      exp.SweepCell
	mean, half float64  // from scalar runs
	scalar     []string // per-seed record digests, scalar engine
	batch      []string // per-seed record digests, sim.RunBatch
}

type sweepProof []sweepCellProof

// mismatches counts the lanes whose table entry or digest disagrees with
// the scalar engine; corrupt nudges the first expected mean by one ulp.
func (p sweepProof) mismatches(corrupt bool) int {
	bad := 0
	for i, c := range p {
		mean := c.mean
		if corrupt && i == 0 {
			mean = math.Nextafter(mean, math.Inf(1))
		}
		if c.table.Mean != mean || c.table.Half != c.half {
			bad += len(c.scalar)
		}
		for s := range c.scalar {
			if c.scalar[s] != c.batch[s] {
				bad++
			}
		}
	}
	return bad
}

// proveSweep re-derives sweepProofCells seeded cells of res from the
// scalar engine and the batch engine, called directly, and records the
// batch engine's per-layer figures on the same cell-seeds:
// batch.gain_vs_scalar (scalar host time ÷ batch host time) and
// batch.ns_per_lane_instr.
func proveSweep(rng *rand.Rand, res *exp.SweepResult, base int64, sp *recorder, layers map[string]float64) (sweepProof, error) {
	p := config.Default()
	kinds := arch.EvalKinds()
	var proof sweepProof
	var scalarNs, batchNs, laneInstrs float64
	for n := 0; n < sweepProofCells; n++ {
		w := res.Names[rng.Intn(len(res.Names))]
		k := kinds[rng.Intn(len(kinds))]
		nvp, _, err := scalarSeeds(w, arch.NVP, base, p, sp)
		if err != nil {
			return nil, err
		}
		kr, kns, err := scalarSeeds(w, k, base, p, sp)
		if err != nil {
			return nil, err
		}
		br, bns, err := batchSeeds(w, k, base, p, sp)
		if err != nil {
			return nil, err
		}
		spd := make([]float64, sweepSeeds)
		for i := range spd {
			spd[i] = float64(nvp[i].TimeNs) / float64(kr[i].TimeNs)
		}
		c := sweepCellProof{table: res.Get(w, k)}
		c.mean, c.half = stats.MeanCI(spd)
		for i := range kr {
			c.scalar = append(c.scalar, journal.FromResult(kr[i]).Digest())
			c.batch = append(c.batch, journal.FromResult(br[i]).Digest())
			laneInstrs += float64(br[i].Counts.Executed)
		}
		proof = append(proof, c)
		scalarNs += kns
		batchNs += bns
	}
	layers["batch.gain_vs_scalar"] = scalarNs / batchNs
	layers["batch.ns_per_lane_instr"] = batchNs / laneInstrs
	return proof, nil
}

// compiled returns the shared compile cache's binary for (workload, kind).
func compiled(w string, k arch.Kind, p config.Params) (*compiler.Result, error) {
	b, err := programOf(w)
	if err != nil {
		return nil, err
	}
	return core.SharedCompileCache().Get(core.KeyFor(w, 1, k, p), b, k, p)
}

// scalarSeeds runs (w, k) on the scalar engine under each sweep timeline
// and returns the results and their total host nanoseconds.
func scalarSeeds(w string, k arch.Kind, base int64, p config.Params, sp *recorder) ([]*sim.Result, float64, error) {
	cres, err := compiled(w, k, p)
	if err != nil {
		return nil, 0, err
	}
	out := make([]*sim.Result, sweepSeeds)
	var ns float64
	for i := range out {
		seed := base + int64(i)
		t := time.Now()
		r, err := core.RunCompiled(cres, k, p, trace.NewShared(trace.RFHome, seed), nil)
		end := time.Now()
		sp.add("sim.Run", "proof", t, end, -1, seed)
		if err != nil {
			return nil, 0, err
		}
		ns += float64(end.Sub(t).Nanoseconds())
		out[i] = r
	}
	return out, ns, nil
}

// batchSeeds runs (w, k) under the same timelines through sim.RunBatch,
// sweepWidth lanes per call, and returns the results and their total host
// nanoseconds.
func batchSeeds(w string, k arch.Kind, base int64, p config.Params, sp *recorder) ([]*sim.Result, float64, error) {
	cres, err := compiled(w, k, p)
	if err != nil {
		return nil, 0, err
	}
	var out []*sim.Result
	var ns float64
	for lo := 0; lo < sweepSeeds; lo += sweepWidth {
		n := min(sweepWidth, sweepSeeds-lo)
		schemes := make([]arch.Scheme, n)
		opt := sim.BatchOptions{Sources: make([]trace.Source, n)}
		for l := range schemes {
			schemes[l] = arch.New(k, p)
			opt.Sources[l] = trace.NewShared(trace.RFHome, base+int64(lo+l))
		}
		t := time.Now()
		rs, errs, err := sim.RunBatch(cres.Linked, schemes, opt)
		end := time.Now()
		sp.add("sim.RunBatch", "proof", t, end, -1, base+int64(lo))
		if err != nil {
			return nil, 0, err
		}
		for _, e := range errs {
			if e != nil {
				return nil, 0, e
			}
		}
		ns += float64(end.Sub(t).Nanoseconds())
		out = append(out, rs...)
	}
	return out, ns, nil
}
