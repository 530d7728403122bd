package arch_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// perturbed returns Table 1 with one change applied.
func perturbed(f func(p *config.Params)) config.Params {
	p := config.Default()
	f(&p)
	return p
}

// kindParamSets are Table 1, each knob a figure sweeps perturbed, and
// the Section 2.2 backup boost.
var kindParamSets = map[string]config.Params{
	"table1":           config.Default(),
	"cache 512B":       perturbed(func(p *config.Params) { p.CacheSize = 512 }),
	"cache 16KiB":      perturbed(func(p *config.Params) { p.CacheSize = 16 << 10 }),
	"4 ways":           perturbed(func(p *config.Params) { p.CacheWays = 4 }),
	"capacitor 100nF":  perturbed(func(p *config.Params) { p.CapacitorF = 100e-9 }),
	"sweep delay":      perturbed(func(p *config.Params) { p.SweepRestoreDelayNs = 10300 }),
	"JIT delays":       perturbed(func(p *config.Params) { p.BackupDelayNs, p.RestoreDelayNs = 500, 3000 }),
	"sweep vmin":       perturbed(func(p *config.Params) { p.SweepVmin = 1.8 }),
	"single buffer":    perturbed(func(p *config.Params) { p.SweepSingleBuffer = true }),
	"no unroll inline": perturbed(func(p *config.Params) { p.CompilerUnrollCap, p.CompilerInline = 1, true }),
	"store threshold":  perturbed(func(p *config.Params) { p.StoreThreshold = 32 }),
	"boost 0.2":        perturbed(func(p *config.Params) { p.VBackupBoost = 0.2 }),
}

// tableThresholds are the backup and restore voltages
// TestVoltageThresholdSelection expects of each kind.
var tableThresholds = map[arch.Kind][2]float64{
	arch.NVP: {2.9, 3.2}, arch.WTVCache: {2.9, 3.2}, arch.ReplayCache: {2.9, 3.2}, arch.NvMR: {2.9, 3.2},
	arch.NVSRAM: {3.2, 3.4}, arch.NVSRAME: {3.2, 3.4},
	arch.SweepNVMSearch: {0, 3.3}, arch.SweepEmptyBit: {0, 3.3},
}

// TestKindParamsIdempotent: what a scheme runs with is a fixed point of
// Kind.Params, passes validation, and carries Table 1's thresholds (the
// JIT backup threshold raised by any boost). Of the compile knobs, every
// kind keeps StoreThreshold, and only the Sweep variants, whose compiler
// mode reads them, keep the unroll cap and inlining.
func TestKindParamsIdempotent(t *testing.T) {
	d := config.Default()
	for _, k := range arch.AllKinds() {
		for name, p := range kindParamSets {
			kp := k.Params(p)
			if again := k.Params(kp); again != kp {
				t.Errorf("%v, %s: Params is not idempotent:\n%+v\n%+v", k, name, kp, again)
			}
			if err := kp.Validate(); err != nil {
				t.Errorf("%v, %s: %v", k, name, err)
			}
			if got := arch.New(k, p).Params(); got != kp {
				t.Errorf("%v, %s: New runs with %+v, Params gives %+v", k, name, got, kp)
			}
			want := tableThresholds[k]
			if want[0] != 0 {
				want[0] += p.VBackupBoost * (p.Vmax - want[0])
			}
			if kp.VBackup != want[0] || kp.VRestore != want[1] {
				t.Errorf("%v, %s: thresholds %v/%v, want %v/%v", k, name, kp.VBackup, kp.VRestore, want[0], want[1])
			}
			if kp.StoreThreshold != p.StoreThreshold {
				t.Errorf("%v, %s: StoreThreshold %d, want %d", k, name, kp.StoreThreshold, p.StoreThreshold)
			}
			unroll, inline := d.CompilerUnrollCap, d.CompilerInline
			if k == arch.SweepNVMSearch || k == arch.SweepEmptyBit {
				unroll, inline = p.CompilerUnrollCap, p.CompilerInline
			}
			if kp.CompilerUnrollCap != unroll || kp.CompilerInline != inline {
				t.Errorf("%v, %s: unroll cap %d and inline %v, want %d and %v",
					k, name, kp.CompilerUnrollCap, kp.CompilerInline, unroll, inline)
			}
		}
	}
}

// resetFields perturb, one at a time, each field Kind.Params may reset,
// to the values the figures sweep it to, and StoreThreshold, which no
// kind may reset.
var resetFields = map[string]config.Params{
	"CacheSize 512B":      kindParamSets["cache 512B"],
	"CacheSize 16KiB":     kindParamSets["cache 16KiB"],
	"CacheWays 4":         kindParamSets["4 ways"],
	"SweepRestoreDelayNs": kindParamSets["sweep delay"],
	"SweepVmin":           kindParamSets["sweep vmin"],
	"SweepSingleBuffer":   kindParamSets["single buffer"],
	"UnrollCap Inline":    kindParamSets["no unroll inline"],
	"StoreThreshold 32":   kindParamSets["store threshold"],
}

// compileFor compiles workload wname for kind k under p.
func compileFor(t *testing.T, wname string, k arch.Kind, p config.Params) *compiler.Result {
	t.Helper()
	w, err := workloads.ByName(wname)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
	if err != nil {
		t.Fatal(err)
	}
	return cres
}

// runRecord runs the binary on s, outage-free (src nil) or under src's
// seed-1 timeline, and returns its record.
func runRecord(t *testing.T, cres *compiler.Result, s arch.Scheme, src *trace.Profile) *journal.Record {
	t.Helper()
	opt := sim.Options{}
	if src != nil {
		opt.Source = trace.New(*src, 1)
	}
	res, err := sim.Run(cres.Linked, s, opt)
	if err != nil {
		t.Fatal(err)
	}
	return journal.FromResult(res)
}

// TestKindParamsResetsOnlyUnreadFields proves Kind.Params' reset list.
// Every (kind, field) pair it resets, found by perturbing the field,
// must leave the cell unchanged: its binary compiled under Params (the
// compile knobs reset) and run on New (every reset applied) simulates sha
// and fft, outage-free and under RF-Office, to the same record and NVM
// image as its binary compiled under the perturbed field and run on the
// thresholds alone. No field outside resetFields may be reset at all.
func TestKindParamsResetsOnlyUnreadFields(t *testing.T) {
	for _, k := range arch.AllKinds() {
		for name, p := range kindParamSets {
			only, kp := arch.NewThresholdsOnly(k, p).Params(), k.Params(p)
			only.CacheSize, only.CacheWays = kp.CacheSize, kp.CacheWays
			only.SweepRestoreDelayNs, only.SweepVmin, only.SweepSingleBuffer = kp.SweepRestoreDelayNs, kp.SweepVmin, kp.SweepSingleBuffer
			only.CompilerUnrollCap, only.CompilerInline = kp.CompilerUnrollCap, kp.CompilerInline
			if only != kp {
				t.Errorf("%v, %s: Params resets a field outside resetFields", k, name)
			}
		}
	}

	profile := trace.RFOffice
	pairs := 0
	for _, k := range arch.AllKinds() {
		for field, p := range resetFields {
			if k.Params(p) != k.Params(config.Default()) {
				continue // the kind reads the field
			}
			pairs++
			for _, wname := range []string{"sha", "fft"} {
				reset, raw := compileFor(t, wname, k, k.Params(p)), compileFor(t, wname, k, p)
				for supply, src := range map[string]*trace.Profile{"outage-free": nil, "RFOffice": &profile} {
					got := runRecord(t, reset, arch.New(k, p), src)
					want := runRecord(t, raw, arch.NewThresholdsOnly(k, p), src)
					if got.Digest() != want.Digest() || got.NVMHash != want.NVMHash {
						t.Errorf("%s on %v, %s, %s: resetting the field changes the record", wname, k, supply, field)
					}
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("Params resets no field")
	}
}

// supplyFields perturb, one at a time, each supply field OutageFreeParams
// resets, to the values the figures sweep it to; Vmin stands for the
// brown-out threshold a Sweep kind's SweepVmin overrides.
var supplyFields = map[string]config.Params{
	"CapacitorF 1mF":      perturbed(func(p *config.Params) { p.CapacitorF = 1e-3 }),
	"CapacitorF 100nF":    kindParamSets["capacitor 100nF"],
	"VBackupBoost":        kindParamSets["boost 0.2"],
	"JIT delays":          kindParamSets["JIT delays"],
	"SweepRestoreDelayNs": kindParamSets["sweep delay"],
	"SweepVmin":           kindParamSets["sweep vmin"],
	"Vmin 2.5":            perturbed(func(p *config.Params) { p.Vmin = 2.5 }),
}

// TestOutageFreeParamsResetsOnlyUnreadFields proves OutageFreeParams'
// reset list. Every supply perturbation must leave every kind's
// OutageFreeParams at Table 1's, and no other field may be reset: a
// perturbed run power (which every instruction's charge reads) must not
// be. Each parameter set whose OutageFreeParams is Table 1's must then
// simulate sha and fft outage-free, compiled under the set and run on the
// thresholds alone, to Table 1's record and NVM image.
func TestOutageFreeParamsResetsOnlyUnreadFields(t *testing.T) {
	sets := map[string]config.Params{"PRun 12mW": perturbed(func(p *config.Params) { p.PRun = 12e-3 })}
	for name, p := range kindParamSets {
		sets[name] = p
	}
	for name, p := range supplyFields {
		sets[name] = p
	}
	table1 := config.Default()
	for _, k := range arch.AllKinds() {
		base := k.OutageFreeParams(table1)
		if again := k.OutageFreeParams(base); again != base || k.Params(base) != base {
			t.Errorf("%v: OutageFreeParams is not a fixed point of itself and Params", k)
		}
		for name := range supplyFields {
			if k.OutageFreeParams(supplyFields[name]) != base {
				t.Errorf("%v: OutageFreeParams keeps the perturbed %s", k, name)
			}
		}
		for name, p := range sets {
			of, kp := k.OutageFreeParams(p), k.Params(p)
			of.CapacitorF, of.VBackupBoost, of.VBackup = kp.CapacitorF, kp.VBackupBoost, kp.VBackup
			of.BackupDelayNs, of.RestoreDelayNs, of.SweepRestoreDelayNs = kp.BackupDelayNs, kp.RestoreDelayNs, kp.SweepRestoreDelayNs
			of.SweepVmin, of.Vmin = kp.SweepVmin, kp.Vmin
			if of != kp {
				t.Errorf("%v, %s: OutageFreeParams resets a field outside supplyFields", k, name)
			}
		}
	}

	for _, wname := range []string{"sha", "fft"} {
		for _, k := range arch.AllKinds() {
			want := runRecord(t, compileFor(t, wname, k, table1), arch.New(k, table1), nil)
			for name, p := range sets {
				if k.OutageFreeParams(p) != k.OutageFreeParams(table1) {
					continue // an outage-free run of k reads the change
				}
				got := runRecord(t, compileFor(t, wname, k, p), arch.NewThresholdsOnly(k, p), nil)
				if got.Digest() != want.Digest() || got.NVMHash != want.NVMHash {
					t.Errorf("%s on %v, %s: the outage-free record differs from Table 1's", wname, k, name)
				}
			}
		}
	}
}
