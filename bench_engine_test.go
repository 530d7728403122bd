// Engine micro-benchmarks: unlike the figure benchmarks, these measure
// the simulation engine itself — interpreter dispatch, energy accounting,
// power-event handling — on single (workload, scheme) runs, and report
// simulated instructions per second so engine regressions show up
// directly rather than through a whole experiment matrix.
package repro

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchWorkload is the engine-benchmark subject: fft has a mixed
// ALU/load/store/branch profile and enough dynamic instructions to
// swamp per-run setup.
const benchWorkload = "fft"

func benchCompile(b *testing.B, kind arch.Kind) (*compiler.Result, config.Params) {
	return benchCompileW(b, benchWorkload, kind)
}

func benchCompileW(b *testing.B, name string, kind arch.Kind) (*compiler.Result, config.Params) {
	b.Helper()
	p := config.Default()
	var w workloads.Workload
	for _, cand := range workloads.All() {
		if cand.Name == name {
			w = cand
		}
	}
	if w.Name == "" {
		b.Fatalf("workload %q not found", name)
	}
	cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, kind, p)
	if err != nil {
		b.Fatal(err)
	}
	return cres, p
}

func reportInstrRate(b *testing.B, instrs uint64) {
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "sim-instrs/s")
}

// BenchmarkEngineStep measures raw interpreter + ledger throughput: the
// SweepCache machine under an ideal supply, where the engine's outage-free
// loop carries no capacitor work at all.
func BenchmarkEngineStep(b *testing.B) {
	cres, p := benchCompile(b, arch.SweepEmptyBit)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cres.Linked, arch.New(arch.SweepEmptyBit, p), sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counts.Executed
	}
	b.StopTimer()
	reportInstrRate(b, instrs)
}

// BenchmarkRunOutageFree measures a full outage-free run on the cache-free
// NVP baseline — the configuration with the highest per-instruction
// memory-system overhead.
func BenchmarkRunOutageFree(b *testing.B) {
	cres, p := benchCompile(b, arch.NVP)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cres.Linked, arch.New(arch.NVP, p), sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counts.Executed
	}
	b.StopTimer()
	reportInstrRate(b, instrs)
}

// BenchmarkRunRFHome measures the harvested-power engine — batched
// settlement epochs, threshold fallback, outages and recharges — on the
// SweepCache machine under the RF-Home trace.
func BenchmarkRunRFHome(b *testing.B) {
	cres, p := benchCompile(b, arch.SweepEmptyBit)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cres.Linked, arch.New(arch.SweepEmptyBit, p),
			sim.Options{Source: trace.New(trace.RFHome, 1)})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counts.Executed
	}
	b.StopTimer()
	reportInstrRate(b, instrs)
}

// BenchmarkNVPRFHome measures the same harvested-power engine on the
// cache-free NVP, whose fetches are charged: every instruction of an
// epoch enters the memory system and takes the epoch's memory-instruction
// tail. Its name keeps it out of the regression gate's -bench pattern.
func BenchmarkNVPRFHome(b *testing.B) {
	cres, p := benchCompile(b, arch.NVP)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cres.Linked, arch.New(arch.NVP, p),
			sim.Options{Source: trace.New(trace.RFHome, 1)})
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counts.Executed
	}
	b.StopTimer()
	reportInstrRate(b, instrs)
}

// BenchmarkRunBatch1 measures a one-lane sim.RunBatch — the scalar
// engine — on basicmath on WT-VCache under the Thermal trace: an
// ALU-heavy workload under a smooth harvest with rare outages.
func BenchmarkRunBatch1(b *testing.B) {
	cres, p := benchCompileW(b, "basicmath", arch.WTVCache)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, errs, err := sim.RunBatch(cres.Linked,
			[]arch.Scheme{arch.New(arch.WTVCache, p)},
			sim.BatchOptions{Sources: []trace.Source{trace.New(trace.Thermal, 1)}})
		if err != nil {
			b.Fatal(err)
		}
		if errs[0] != nil {
			b.Fatal(errs[0])
		}
		instrs = results[0].Counts.Executed
	}
	b.StopTimer()
	reportInstrRate(b, instrs)
}
