package sim_test

// Tracing is not a separate engine path: cpu.Run emits the checkpoint
// events behind a nil check, and every other event is emitted between
// interpreter calls. Attaching a tracer must still change no result bit —
// the benchmarks and production runs are untraced, while the golden
// digests are captured with a tracer attached. This test pins that across
// the full quick matrix in both supply regimes, which (together with
// TestFastPathGolden) extends the byte-identity proof to untraced runs.

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestUntracedMatchesTraced(t *testing.T) {
	profiles := map[string]*trace.Profile{
		"outage-free": nil,
		"RFHome":      func() *trace.Profile { p := trace.RFHome; return &p }(),
	}
	for _, w := range quickWorkloads(t) {
		for _, k := range arch.AllKinds() {
			for pname, profile := range profiles {
				w, k, profile := w, k, profile
				t.Run(w.Name+"/"+k.String()+"/"+pname, func(t *testing.T) {
					t.Parallel()
					traced, _ := runEngine(t, w, k, profile, false)

					p := config.Default()
					cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
					if err != nil {
						t.Fatalf("compile: %v", err)
					}
					var src trace.Source
					if profile != nil {
						src = trace.New(*profile, 1)
					}
					untraced, err := sim.Run(cres.Linked, arch.New(k, p), sim.Options{Source: src})
					if err != nil {
						t.Fatalf("untraced run: %v", err)
					}

					a, b := canonicalResult(traced), canonicalResult(untraced)
					if !bytes.Equal(a, b) {
						t.Errorf("traced and untraced results diverge:\ntraced:\n%s\nuntraced:\n%s", a, b)
					}
				})
			}
		}
	}
}
