package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordRun executes one traced simulation and returns the JSONL encoding
// of its telemetry stream.
func recordRun(t *testing.T, kind arch.Kind) []byte {
	t.Helper()
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	sink := &telemetry.MemorySink{}
	tr := telemetry.NewTracer(sink, 64) // small buffer: exercise mid-run flushes
	src := trace.New(trace.RFOffice, 1)
	build := func() *ir.Program { return w.Build(1) }
	res, err := RunTracedCtx(context.Background(), build, kind, config.Default(), src, tr)
	if err != nil {
		t.Fatalf("%v run: %v", kind, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("%v close: %v", kind, err)
	}
	if len(sink.Events) == 0 {
		t.Fatalf("%v produced no telemetry events", kind)
	}
	if last := sink.Events[len(sink.Events)-1]; last.Kind != telemetry.EvHalt {
		t.Fatalf("%v stream does not end in halt: %v", kind, last.Kind)
	}
	if res.Outages == 0 {
		t.Fatalf("%v saw no outages under RFOffice", kind)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, sink.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTelemetryDeterministic runs the identical simulation twice and
// demands byte-identical telemetry streams — the property that makes
// recorded traces diffable across code changes.
func TestTelemetryDeterministic(t *testing.T) {
	for _, kind := range []arch.Kind{arch.SweepEmptyBit, arch.NVP, arch.ReplayCache} {
		kind := kind
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			a := recordRun(t, kind)
			b := recordRun(t, kind)
			if !bytes.Equal(a, b) {
				t.Fatalf("telemetry streams differ between identical runs (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}
