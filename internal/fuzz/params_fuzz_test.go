package fuzz

// Fuzz target for the -params decoding path: arbitrary bytes must never
// panic the decoder, and anything it accepts must be a configuration the
// validator also accepts and every kind builds from without a panic (the
// property cmd/sweepexp, cmd/sweepsim and sweepd rely on before handing
// params to the engine). Accepted inputs must also fingerprint
// deterministically — the journal keys cells by it.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
)

func FuzzParamsJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"CapacitorF": 470e-9}`))
	f.Add([]byte(`{"Vmax": 5.0, "Vmin": 1.8, "VBackup": 2.5, "VRestore": 3.3}`))
	f.Add([]byte(`{"CacheSize": 4096, "CacheWays": 2, "StoreThreshold": 8}`))
	f.Add([]byte(`{"CapacitorF": -1}`))
	f.Add([]byte(`{"Vmax": "NaN"}`))
	f.Add([]byte(`{"NoSuchKnob": 1}`))
	f.Add([]byte(`{"CapacitorF": 1e-9} {"CapacitorF": 2e-9}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"CacheSize":3072}`))
	f.Add([]byte(`{"CacheWays":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := config.FromJSON(data)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("FromJSON accepted %q but Validate rejects it: %v", data, verr)
		}
		if p.Fingerprint() != p.Fingerprint() {
			t.Fatal("fingerprint not deterministic")
		}
		for _, k := range arch.AllKinds() {
			arch.New(k, p)
		}
	})
}
