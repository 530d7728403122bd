package sim_test

// Differential proof for the batched-accounting engine: on every quick-set
// workload, on every scheme, under an ideal supply and under the RF-Home
// harvested trace, the default engine must produce a Result and a JSONL
// telemetry stream byte-identical to the per-instruction reference engine
// (Options.Precise). Any divergence — one outage fired an instruction
// early, one joule attributed differently — fails loudly with the first
// differing field or trace line.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// diffQuickSet is the engine-equivalence set: the eight workloads on which
// TestFastPathGolden's digests were taken. It is fixed with those digests
// and does not follow exp's quick set.
var diffQuickSet = map[string]bool{
	"adpcmenc": true, "gsmdec": true, "sha": true, "susane": true,
	"dijkstra": true, "fft": true, "blowfishenc": true, "rijndaelenc": true,
}

func quickWorkloads(t testing.TB) []workloads.Workload {
	t.Helper()
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if diffQuickSet[w.Name] {
			out = append(out, w)
		}
	}
	if len(out) != len(diffQuickSet) {
		t.Fatalf("quick set resolved %d of %d workloads", len(out), len(diffQuickSet))
	}
	return out
}

// runEngine compiles w for k and runs it once, returning the result and
// the raw telemetry stream.
func runEngine(t testing.TB, w workloads.Workload, k arch.Kind, profile *trace.Profile, precise bool) (*sim.Result, []byte) {
	t.Helper()
	p := config.Default()
	cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
	if err != nil {
		t.Fatalf("compile %s for %v: %v", w.Name, k, err)
	}
	var src trace.Source
	if profile != nil {
		src = trace.New(*profile, 1)
	}
	var buf bytes.Buffer
	tr := telemetry.NewTracer(telemetry.NewJSONLSink(&buf), 0)
	res, err := sim.Run(cres.Linked, arch.New(k, p), sim.Options{Source: src, Tracer: tr, Precise: precise})
	if err != nil {
		t.Fatalf("run %s on %v (precise=%v): %v", w.Name, k, precise, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close tracer: %v", err)
	}
	return res, buf.Bytes()
}

// firstTraceDiff returns the first line index at which the two JSONL
// streams differ, or -1.
func firstTraceDiff(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) > n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		var xa, xb []byte
		if i < len(la) {
			xa = la[i]
		}
		if i < len(lb) {
			xb = lb[i]
		}
		if !bytes.Equal(xa, xb) {
			return i
		}
	}
	return -1
}

func TestBatchedMatchesPrecise(t *testing.T) {
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
					ref, refTrace := runEngine(t, w, k, profile, true)
					got, gotTrace := runEngine(t, w, k, profile, false)

					if !ref.NVM.Equal(got.NVM) {
						t.Errorf("NVM images differ, first byte at %#x", ref.NVM.FirstDiff(got.NVM))
					}
					// NVM compared above; DeepEqual would descend into its
					// unexported one-entry page cache, which legitimately
					// differs by access pattern.
					ref.NVM, got.NVM = nil, nil
					if !reflect.DeepEqual(ref, got) {
						t.Errorf("results differ:\nprecise: %+v\nbatched: %+v", ref, got)
					}
					if i := firstTraceDiff(refTrace, gotTrace); i >= 0 {
						t.Errorf("telemetry diverges at line %d:\nprecise: %s\nbatched: %s",
							i, traceLine(refTrace, i), traceLine(gotTrace, i))
					}
				})
			}
		}
	}
}

func traceLine(b []byte, i int) []byte {
	lines := bytes.Split(b, []byte("\n"))
	if i < len(lines) {
		return lines[i]
	}
	return []byte("<stream ended>")
}
