package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// figures is the paper evaluation exactly as `sweepexp -exp all` runs it:
// every table and figure, in its order, printing what it prints.
var figures = []struct {
	name string
	run  func(c *exp.Context) error
}{
	{"table1", func(c *exp.Context) error { c.Table1(); return nil }},
	{"fig5", func(c *exp.Context) error {
		r, err := c.Fig5()
		if err == nil {
			fmt.Fprintln(c.Out, r.Chart())
		}
		return err
	}},
	{"fig6", func(c *exp.Context) error { _, err := c.Fig6(); return err }},
	{"fig7", func(c *exp.Context) error { _, err := c.Fig7(); return err }},
	{"par", func(c *exp.Context) error { _, err := c.Parallelism(); return err }},
	{"fig8", func(c *exp.Context) error { _, err := c.Fig8(); return err }},
	{"fig9", func(c *exp.Context) error { _, err := c.Fig9(); return err }},
	{"fig10", func(c *exp.Context) error { _, err := c.Fig10(); return err }},
	{"fig11", func(c *exp.Context) error { _, err := c.Fig11(); return err }},
	{"fig12", func(c *exp.Context) error { _, err := c.Fig12(); return err }},
	{"icount", func(c *exp.Context) error { _, err := c.ICount(); return err }},
	{"fig13", func(c *exp.Context) error { _, err := c.Fig13(); return err }},
	{"fig14", func(c *exp.Context) error { _, err := c.Fig14(); return err }},
	{"fig15", func(c *exp.Context) error { _, err := c.Fig15(); return err }},
	{"fig16", func(c *exp.Context) error { _, err := c.Fig16(); return err }},
	{"hwcost", func(c *exp.Context) error { c.HWCost(); return nil }},
	{"degradation", func(c *exp.Context) error { _, err := c.Degradation(); return err }},
	{"threshold", func(c *exp.Context) error { _, err := c.Threshold(); return err }},
	{"ablation", func(c *exp.Context) error {
		r, err := c.Ablation()
		if err == nil {
			fmt.Fprintln(c.Out, r.Chart())
		}
		return err
	}},
	{"recovery", func(c *exp.Context) error { _, err := c.Recovery(); return err }},
	{"vmin", func(c *exp.Context) error { _, err := c.Vmin(); return err }},
	{"wt", func(c *exp.Context) error { _, err := c.WT(); return err }},
}

// goldenPath is the evaluation's committed output.
var goldenPath = filepath.Join("docs", "full_results.txt")

// runEvaluation repeats the full paper evaluation (scale 1, seed 1, a
// worker pool of GOMAXPROCS) through exp.Context. Every repetition starts
// with cold trace tapes; the compile cache is process-wide and has no
// reset, so only the first repetition pays the compile misses. The seed
// does not change this workload's inputs: the paper evaluation is fixed.
//
// An operation is one matrix cell; its latency is the worker-pool time the
// campaign tracker records for it. Each repetition's printed tables must
// equal docs/full_results.txt (trailing blank lines aside).
func runEvaluation(cfg *runConfig) (*outcome, error) {
	golden, err := os.ReadFile(filepath.Join(cfg.root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	o := &outcome{layers: map[string]float64{}}
	if o.setup, err = startupSamples(cfg); err != nil {
		return nil, err
	}

	var outs []string
	var perUnit []int
	var cells []cellKey
	cpu0, start := cpuSeconds(), time.Now()
	o.units, o.window, err = measure(cfg, func(i int) error {
		sp := cfg.spansFor(i)
		trace.FlushSharedTapes()
		c := exp.DefaultContext()
		var buf bytes.Buffer
		c.Out = &buf
		c.Tracker = obs.NewCampaignTracker(quietLog)
		c.Metrics = telemetry.NewSnapshot()
		// Each figure's interval, for rescaling the latencies of the cells
		// it ran (the tracker keeps no start time for finished cells).
		ran := map[string]timing{}
		unit := sp.begin("evaluation", "campaign", -1, int64(i))
		for _, f := range figures {
			c.Tracker.BeginPhase(f.name)
			s := sp.begin("exp."+f.name, "campaign", unit, int64(i))
			t := time.Now()
			err := f.run(c)
			ran[f.name] = since(t)
			sp.end(s)
			if err != nil {
				return fmt.Errorf("%s: %w", f.name, err)
			}
		}
		sp.end(unit)
		outs = append(outs, buf.String())

		done := 0
		for _, cp := range c.Tracker.Progress().Cells {
			o.attempted++
			if cp.State != obs.CellDone {
				o.failed++
				continue
			}
			done++
			fig := ran[cp.Phase]
			d := time.Duration(cp.DurationMs * float64(time.Millisecond))
			o.lat = append(o.lat, cfg.speed.scaledWithin(d, fig.at, fig.at.Add(fig.dur)))
			if i == 0 {
				kind, _ := arch.ParseKind(cp.Scheme)
				cells = append(cells, cellKey{cp.Workload, kind, cp.Profile, c.Seed})
			}
		}
		o.ops += done
		perUnit = append(perUnit, done)
		snap := c.MetricsSnapshot()
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

	want := strings.TrimRight(string(golden), "\n")
	o.check = func(corrupt bool) int {
		w := want
		if corrupt {
			w = corruptString(w)
		}
		bad := 0
		for u, out := range outs {
			if strings.TrimRight(out, "\n") != w {
				bad += perUnit[u]
			}
		}
		return bad
	}

	if cfg.traced {
		rng := rand.New(rand.NewSource(cfg.seed))
		if err := probeLayers(rng, cells, cfg.spans, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}
