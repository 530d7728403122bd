package arch_test

import (
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
// Kind.Params, passes validation, carries Table 1's thresholds (the JIT
// backup threshold raised by any boost), and keeps the compile knobs.
func TestKindParamsIdempotent(t *testing.T) {
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
			if kp.StoreThreshold != p.StoreThreshold || kp.CompilerUnrollCap != p.CompilerUnrollCap || kp.CompilerInline != p.CompilerInline {
				t.Errorf("%v, %s: compile knobs changed", k, name)
			}
		}
	}
}

// resetFields perturb, one at a time, each field Kind.Params may reset,
// to the values the figures sweep it to.
var resetFields = map[string]config.Params{
	"CacheSize 512B":      kindParamSets["cache 512B"],
	"CacheSize 16KiB":     kindParamSets["cache 16KiB"],
	"CacheWays 4":         kindParamSets["4 ways"],
	"SweepRestoreDelayNs": kindParamSets["sweep delay"],
	"SweepVmin":           kindParamSets["sweep vmin"],
	"SweepSingleBuffer":   kindParamSets["single buffer"],
}

// TestKindParamsResetsOnlyUnreadFields proves Kind.Params' reset list.
// Every (kind, field) pair it resets, found by perturbing the field,
// must leave the machine unchanged: built by New (reset applied) and
// from the thresholds alone (field perturbed), it simulates sha and fft,
// outage-free and under RF-Office, to the same record and NVM image. No
// field outside resetFields may be reset at all.
func TestKindParamsResetsOnlyUnreadFields(t *testing.T) {
	for _, k := range arch.AllKinds() {
		for name, p := range kindParamSets {
			only, kp := arch.NewThresholdsOnly(k, p).Params(), k.Params(p)
			only.CacheSize, only.CacheWays = kp.CacheSize, kp.CacheWays
			only.SweepRestoreDelayNs, only.SweepVmin, only.SweepSingleBuffer = kp.SweepRestoreDelayNs, kp.SweepVmin, kp.SweepSingleBuffer
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
				w, err := workloads.ByName(wname)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
				if err != nil {
					t.Fatal(err)
				}
				for supply, src := range map[string]*trace.Profile{"outage-free": nil, "RFOffice": &profile} {
					run := func(s arch.Scheme) *journal.Record {
						opt := sim.Options{}
						if src != nil {
							opt.Source = trace.NewShared(*src, 1)
						}
						res, err := sim.Run(cres.Linked, s, opt)
						if err != nil {
							t.Fatal(err)
						}
						return journal.FromResult(res)
					}
					got, want := run(arch.New(k, p)), run(arch.NewThresholdsOnly(k, p))
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
