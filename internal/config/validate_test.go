package config

import (
	"math"
	"strings"
	"testing"
)

func TestValidateDefault(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() must validate: %v", err)
	}
	if err := Default().ValidateJIT(); err != nil {
		t.Fatalf("Default() must satisfy the JIT ordering: %v", err)
	}
	if err := Default().WithSweepThresholds().Validate(); err != nil {
		t.Fatalf("sweep thresholds must validate: %v", err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Params)
		want string // substring of the error
	}{
		{"nan voltage", func(p *Params) { p.Vmax = math.NaN() }, "finite"},
		{"inf energy", func(p *Params) { p.EInstr = math.Inf(1) }, "finite"},
		{"negative energy", func(p *Params) { p.ENVMWrite = -1e-12 }, "negative"},
		{"zero capacitor", func(p *Params) { p.CapacitorF = 0 }, "capacitor"},
		{"negative capacitor", func(p *Params) { p.CapacitorF = -470e-9 }, "negative"},
		{"vmax below vmin", func(p *Params) { p.Vmax, p.Vmin = 1.0, 2.0 }, "usable energy"},
		{"restore above vmax", func(p *Params) { p.VRestore = p.Vmax + 1 }, "restore"},
		{"zero run power", func(p *Params) { p.PRun = 0 }, "run power"},
		{"zero cycle", func(p *Params) { p.CycleNs = 0 }, "timing"},
		{"zero nvm", func(p *Params) { p.NVMSize = 0 }, "NVM size"},
		{"negative latency", func(p *Params) { p.NVMWriteNs = -1 }, "latency"},
		{"negative delay", func(p *Params) { p.RestoreDelayNs = -1 }, "delay"},
		{"zero cache", func(p *Params) { p.CacheSize = 0 }, "cache"},
		{"cache below one line per way", func(p *Params) { p.CacheSize = 64 }, "64 B line"},
		{"24 sets", func(p *Params) { p.CacheSize = 3 << 10 }, "power of two"},
		{"21 sets", func(p *Params) { p.CacheWays = 3 }, "power of two"},
		{"cache above the bound", func(p *Params) { p.CacheSize = 2 * maxCacheSize }, "cache size"},
		{"zero store threshold", func(p *Params) { p.StoreThreshold = 0 }, "store threshold"},
		{"store threshold above the bound", func(p *Params) { p.StoreThreshold = maxStoreThreshold + 1 }, "store threshold"},
		{"zero clwb depth", func(p *Params) { p.ClwbQueueDepth = 0 }, "clwb"},
		{"zero rename cap", func(p *Params) { p.NvMRRenameCap = 0 }, "rename"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Default()
			tc.mut(&p)
			err := p.Validate()
			if err == nil {
				t.Fatal("Validate accepted a malformed configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsTheBounds: the largest cache and store threshold
// Validate allows are valid, in any power-of-two set count.
func TestValidateAcceptsTheBounds(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 16} {
		p := Default()
		p.CacheSize, p.CacheWays, p.StoreThreshold = maxCacheSize, ways, maxStoreThreshold
		if err := p.Validate(); err != nil {
			t.Errorf("%d ways: %v", ways, err)
		}
	}
}

func TestValidateJITOrdering(t *testing.T) {
	p := Default()
	p.VBackup = p.Vmin // trigger at brown-out: backup can never fire in time
	if err := p.ValidateJIT(); err == nil || !strings.Contains(err.Error(), "Vmin") {
		t.Errorf("VBackup <= Vmin: err = %v", err)
	}
	p = Default()
	p.VBackup = p.VRestore
	if err := p.ValidateJIT(); err == nil || !strings.Contains(err.Error(), "VRestore") {
		t.Errorf("VBackup >= VRestore: err = %v", err)
	}
}

// TestValidateAllowsDynamicNoProgress pins that the static validator does
// NOT reject a restore threshold at or below the brown-out floor: the
// Table 1 sweep-Vmin study runs such configurations on purpose and relies
// on the engine's ErrNoProgress guard instead.
func TestValidateAllowsDynamicNoProgress(t *testing.T) {
	p := Default()
	p.SweepVmin = 3.4 // above the 3.3 V sweep restore threshold
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate must leave dynamic no-progress configs to the engine: %v", err)
	}
	if err := p.WithSweepThresholds().Validate(); err != nil {
		t.Fatalf("WithSweepThresholds: %v", err)
	}
}

func TestFromJSON(t *testing.T) {
	p, err := FromJSON([]byte(`{"CapacitorF": 100e-9, "CacheSize": 8192}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.CapacitorF != 100e-9 || p.CacheSize != 8192 {
		t.Errorf("override not applied: cap=%v cache=%d", p.CapacitorF, p.CacheSize)
	}
	if p.Vmax != Default().Vmax {
		t.Error("absent fields must keep their defaults")
	}

	if _, err := FromJSON([]byte(`{"NoSuchKnob": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := FromJSON([]byte(`{"CapacitorF": 100e-9} trailing`)); err == nil {
		t.Error("trailing garbage accepted")
	}
	if _, err := FromJSON([]byte(`{"CapacitorF": -1}`)); err == nil {
		t.Error("invalid merged config accepted")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestFingerprint(t *testing.T) {
	a, b := Default(), Default()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical params must share a fingerprint")
	}
	b.CapacitorF += 1e-12
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("a one-bit parameter change must change the fingerprint")
	}
	if n := len(a.Fingerprint()); n != 32 {
		t.Errorf("fingerprint length %d, want 32 hex chars", n)
	}
}
