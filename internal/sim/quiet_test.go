package sim_test

// Proof of sim.QuietBudget on the engine: wherever a run's outage-free
// ledger fits the quiet budget of its machine, the run under any power
// trace returns the outage-free record byte for byte, NVM image included.
// Package exp serves a harvested cell from its outage-free twin by this
// rule.

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// quietKinds are the kinds the rule can serve: all but NvMR, whose
// rename table forces backups under any trace.
func quietKinds() []arch.Kind {
	var out []arch.Kind
	for _, k := range arch.AllKinds() {
		if k != arch.NvMR {
			out = append(out, k)
		}
	}
	return out
}

// quietRun runs w on kind k under p, outage-free (profile nil) or under
// the profile's timeline for seed, and returns its record.
func quietRun(t *testing.T, w workloads.Workload, k arch.Kind, p config.Params, profile *trace.Profile, seed int64) *journal.Record {
	t.Helper()
	cres, err := core.SharedCompileCache().Get(core.KeyFor(w.Name, 1, k, p), func() *ir.Program { return w.Build(1) }, k, p)
	if err != nil {
		t.Fatal(err)
	}
	var src trace.Source
	if profile != nil {
		src = trace.New(*profile, seed)
	}
	res, err := core.RunCompiled(cres, k, p, src, nil)
	if err != nil {
		t.Fatalf("%s on %v: %v", w.Name, k, err)
	}
	return journal.FromResult(res)
}

// withCap returns Table 1 with capacitor cf.
func withCap(cf float64) config.Params {
	p := config.Default()
	p.CapacitorF = cf
	return p
}

// TestQuietRunsMatchOutageFree is the rule's table: every workload on
// every kind but NvMR, under every profile, at 2 µF, 10 µF, 100 µF and
// 1 mF, on two timelines. Wherever the outage-free ledger fits the
// machine's QuietBudget, the harvested record must equal the outage-free
// one. Under -short it runs the quick workloads under RF-Office and solar
// at 10 µF and 1 mF; the full table is about 4,000 qualifying runs.
func TestQuietRunsMatchOutageFree(t *testing.T) {
	wl, profiles, caps := workloads.All(), trace.Profiles(), []float64{2e-6, 10e-6, 100e-6, 1e-3}
	if testing.Short() {
		wl, profiles, caps = quickWorkloads(t), []trace.Profile{trace.RFOffice, trace.Solar}, []float64{10e-6, 1e-3}
	}
	table1 := config.Default()
	for _, w := range wl {
		for _, k := range quietKinds() {
			w, k := w, k
			t.Run(w.Name+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				free := quietRun(t, w, k, table1, nil, 1)
				total := free.Result.Ledger.Total()
				qualified := 0
				for _, cf := range caps {
					p := withCap(cf)
					if total > sim.QuietBudget(arch.New(k, p)) {
						continue
					}
					for i := range profiles {
						for _, seed := range []int64{1, 2} {
							qualified++
							got := quietRun(t, w, k, p, &profiles[i], seed)
							if got.Digest() != free.Digest() || got.NVMHash != free.NVMHash {
								t.Errorf("%s seed %d at %g F: the ledger (%.4g J) fits the quiet budget, but the record differs from the outage-free one (%d outages, %d backups)",
									profiles[i], seed, cf, total, got.Result.Outages, got.Result.Arch.BackupEvents)
							}
						}
					}
				}
				t.Logf("%d qualifying runs", qualified)
			})
		}
	}
}

// TestQuietBudgetEdge puts the budget on the outage-free total: the
// capacitor is the smallest whose QuietBudget reaches the sha run's
// ledger, which lands the budget exactly on the total for some kinds and
// one ulp above it for the rest, and the harvested record must still
// equal the outage-free one.
func TestQuietBudgetEdge(t *testing.T) {
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	profile := trace.RFOffice
	exact := 0
	for _, k := range quietKinds() {
		free := quietRun(t, w, k, config.Default(), nil, 1)
		total := free.Result.Ledger.Total()
		budget := func(cf float64) float64 { return sim.QuietBudget(arch.New(k, withCap(cf))) }
		// The budget is linear in the capacitance: solve, then step by
		// one ulp to the smallest capacitor whose budget covers the total.
		cf := total / budget(1)
		for budget(cf) < total {
			cf = math.Nextafter(cf, math.Inf(1))
		}
		for budget(math.Nextafter(cf, 0)) >= total {
			cf = math.Nextafter(cf, 0)
		}
		if budget(cf) == total {
			exact++
		}
		got := quietRun(t, w, k, withCap(cf), &profile, 1)
		if got.Digest() != free.Digest() || got.NVMHash != free.NVMHash {
			t.Errorf("%v at %.17g F (budget %.17g J, total %.17g J): the record differs from the outage-free one",
				k, cf, budget(cf), total)
		}
	}
	// Not every total is a float the budget's arithmetic can land on, but
	// some kinds' are: the comparison's boundary itself is exercised.
	if exact == 0 {
		t.Error("no kind's budget landed exactly on its outage-free total")
	}
}

// TestQuietBudgetExcludesNvMR pins why NvMR's budget is 0. jpegenc on
// NvMR at 1 mF uses 8.2 µJ outage-free, well inside what the capacitor
// holds above NvMR's backup threshold, yet under RF-Office its rename
// table forces backups (15 of them) and the run uses 17.7 µJ: its
// outage-free run is not its twin.
func TestQuietBudgetExcludesNvMR(t *testing.T) {
	w, err := workloads.ByName("jpegenc")
	if err != nil {
		t.Fatal(err)
	}
	p, profile := withCap(1e-3), trace.RFOffice
	free := quietRun(t, w, arch.NvMR, config.Default(), nil, 1)
	total := free.Result.Ledger.Total()
	// NVP has NvMR's thresholds and no rename table: its budget is what
	// the capacitor alone would allow.
	if b := sim.QuietBudget(arch.New(arch.NVP, p)); total > b {
		t.Fatalf("the outage-free ledger %.4g J exceeds the capacitor's budget %.4g J: no counterexample", total, b)
	}
	harvested := quietRun(t, w, arch.NvMR, p, &profile, 1)
	if harvested.Result.Arch.BackupEvents == 0 || harvested.Digest() == free.Digest() {
		t.Fatalf("NvMR under RF-Office took %d backups and matched the outage-free record: no counterexample",
			harvested.Result.Arch.BackupEvents)
	}
	if b := sim.QuietBudget(arch.New(arch.NvMR, p)); total <= b {
		t.Errorf("NvMR's quiet budget %.4g J covers its outage-free ledger %.4g J, but the run under RF-Office takes %d backups",
			b, total, harvested.Result.Arch.BackupEvents)
	}
}

// TestQuietBudgetRejectsWhatTheEngineRejects: a run the engine refuses
// under a power trace must simulate and fail, never be served, so its
// budget is 0.
func TestQuietBudgetRejectsWhatTheEngineRejects(t *testing.T) {
	p := withCap(1e-3)
	p.VBackupBoost = 1 // NVP's backup threshold rises to VRestore - 0.05 ...
	p.Vmin = 3.3       // ... which sits below this brown-out voltage
	if err := arch.New(arch.NVP, p).Params().ValidateJIT(); err == nil {
		t.Fatal("the params pass ValidateJIT")
	}
	if b := sim.QuietBudget(arch.New(arch.NVP, p)); b != 0 {
		t.Errorf("QuietBudget is %g for params the engine rejects under a trace", b)
	}
	p = withCap(1e-3)
	p.SweepVmin = 3.6 // above Vmax: a Sweep kind's params fail Validate
	if b := sim.QuietBudget(arch.New(arch.SweepEmptyBit, p)); b != 0 {
		t.Errorf("QuietBudget is %g for params that fail Validate", b)
	}
	if b := sim.QuietBudget(arch.New(arch.SweepEmptyBit, withCap(1e-3))); b <= 0 {
		t.Errorf("QuietBudget is %g for Table 1 at 1 mF", b)
	}
}
