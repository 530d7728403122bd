package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// cellKey identifies one simulated cell of a workload, for the layer
// probes. profile is a trace profile name; any other value (such as
// "outage-free") means an ideal supply.
type cellKey struct {
	workload string
	kind     arch.Kind
	profile  string
	seed     int64
}

// probeSample is how many of a workload's cells the scalar-engine probe
// re-runs.
const probeSample = 12

// programOf returns the function that builds a workload's scale-1
// program.
func programOf(name string) (func() *ir.Program, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	return func() *ir.Program { return w.Build(1) }, nil
}

// probeLayers measures the layers a workload reaches out of the
// benchmark's sight — compilation (core), timeline generation (trace) and
// the scalar engine (sim) — by calling their public functions on the
// workload's own cells, with Table 1 parameters at scale 1:
//
//   - core.compile_s: core.Compile, uncached, once per distinct compile
//     key; core.compile_misses: the process-wide compile cache's size,
//     one entry per compilation the workload itself paid for;
//   - sim.ns_per_instr.*: core.RunCompiled on a seeded sample of cells,
//     split by supply;
//   - trace.tape_s: generating each sampled timeline up to the furthest
//     simulated time a sampled cell reached on it.
func probeLayers(rng *rand.Rand, cells []cellKey, sp *recorder, layers map[string]float64) error {
	p := config.Default()
	seen := map[core.CompileKey]bool{}
	for _, c := range cells {
		key := core.KeyFor(c.workload, 1, c.kind, p)
		if seen[key] {
			continue
		}
		seen[key] = true
		b, err := programOf(c.workload)
		if err != nil {
			return err
		}
		t := time.Now()
		_, err = core.Compile(b, c.kind, p)
		end := time.Now()
		sp.add("core.Compile", "probe", t, end, -1, 0)
		if err != nil {
			return err
		}
		layers["core.compile_s"] += end.Sub(t).Seconds()
	}
	layers["core.compile_misses"] = float64(core.SharedCompileCache().Len())

	type timeline struct {
		p    trace.Profile
		seed int64
	}
	horizon := map[timeline]int64{}
	var ns, instrs [2]float64 // [0] outage-free, [1] harvested
	for _, i := range rng.Perm(len(cells))[:min(probeSample, len(cells))] {
		c := cells[i]
		b, err := programOf(c.workload)
		if err != nil {
			return err
		}
		cres, err := core.SharedCompileCache().Get(core.KeyFor(c.workload, 1, c.kind, p), b, c.kind, p)
		if err != nil {
			return err
		}
		var src trace.Source
		supply := 0
		prof, harvested := trace.ParseProfile(c.profile)
		if harvested {
			src, supply = trace.New(prof, c.seed), 1
		}
		t := time.Now()
		res, err := core.RunCompiled(cres, c.kind, p, src, nil)
		end := time.Now()
		sp.add("sim.Run", "probe", t, end, -1, int64(i))
		if err != nil {
			return err
		}
		ns[supply] += float64(end.Sub(t).Nanoseconds())
		instrs[supply] += float64(res.Counts.Executed)
		if harvested {
			tl := timeline{prof, c.seed}
			horizon[tl] = max(horizon[tl], res.TimeNs)
		}
	}
	if instrs[0] > 0 {
		layers["sim.ns_per_instr.outage_free"] = ns[0] / instrs[0]
	}
	if instrs[1] > 0 {
		layers["sim.ns_per_instr.harvested"] = ns[1] / instrs[1]
	}
	for tl, h := range horizon {
		t := time.Now()
		src := trace.New(tl.p, tl.seed)
		for covered := int64(0); covered < h; {
			d, _ := src.Next()
			covered += max(d, 1)
		}
		end := time.Now()
		sp.add("trace.New", "probe", t, end, -1, tl.seed)
		layers["trace.tape_s"] += end.Sub(t).Seconds()
	}
	return nil
}

// entry is one journalled cell.
type entry struct {
	cell journal.Cell
	rec  *journal.Record
}

// journalProbeAppends bounds the journal probe's fsynced appends.
const journalProbeAppends = 200

// probeJournal measures the journal layer on a workload's own records:
// journal.Append (fsync on) of up to journalProbeAppends of them into a
// scratch journal in dir, then journal.Open of the journal the workload
// filled, at path.
func probeJournal(dir string, entries []entry, path string, sp *recorder, layers map[string]float64) error {
	j, err := journal.Open(filepath.Join(dir, "append-probe.jsonl"))
	if err != nil {
		return err
	}
	var d []float64
	for _, e := range entries[:min(len(entries), journalProbeAppends)] {
		t := time.Now()
		err := j.Append(e.cell, e.rec)
		end := time.Now()
		sp.add("journal.Append", "probe", t, end, -1, 0)
		if err != nil {
			j.Close()
			return err
		}
		d = append(d, end.Sub(t).Seconds())
	}
	if err := j.Close(); err != nil {
		return err
	}
	layers["journal.append_us.p50"] = quantile(d, 0.50) * 1e6
	layers["journal.append_us.p99"] = quantile(d, 0.99) * 1e6

	t := time.Now()
	filled, err := journal.Open(path)
	end := time.Now()
	sp.add("journal.Open", "probe", t, end, -1, 0)
	if err != nil {
		return err
	}
	layers["journal.open_s"] = end.Sub(t).Seconds()
	return filled.Close()
}
