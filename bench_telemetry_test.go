package repro

import (
	"context"
	"io"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Telemetry overhead benchmarks: the same (workload, scheme, trace)
// simulation with tracing disabled (nil tracer — the default every
// experiment driver uses), enabled into a discarding sink (isolates event
// construction + buffering), and enabled into the JSONL encoder. Compare
// the Disabled variants against the seed's figure benchmarks to confirm
// the disabled path costs nothing measurable.

func benchRun(b *testing.B, bench string, kind arch.Kind, mkSink func() telemetry.Sink) {
	b.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *ir.Program { return w.Build(1) }
	p := config.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tr *telemetry.Tracer
		if mkSink != nil {
			tr = telemetry.NewTracer(mkSink(), 0)
		}
		src := trace.New(trace.RFOffice, 1)
		if _, err := core.RunTracedCtx(context.Background(), build, kind, p, src, tr); err != nil {
			b.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTelemetryDisabledSHA(b *testing.B) {
	benchRun(b, "sha", arch.SweepEmptyBit, nil)
}

func BenchmarkTelemetryDisabledDijkstra(b *testing.B) {
	benchRun(b, "dijkstra", arch.SweepEmptyBit, nil)
}

func BenchmarkTelemetryDiscardSHA(b *testing.B) {
	benchRun(b, "sha", arch.SweepEmptyBit, func() telemetry.Sink { return telemetry.DiscardSink{} })
}

func BenchmarkTelemetryDiscardDijkstra(b *testing.B) {
	benchRun(b, "dijkstra", arch.SweepEmptyBit, func() telemetry.Sink { return telemetry.DiscardSink{} })
}

func BenchmarkTelemetryJSONLSHA(b *testing.B) {
	benchRun(b, "sha", arch.SweepEmptyBit, func() telemetry.Sink { return telemetry.NewJSONLSink(io.Discard) })
}

func BenchmarkTelemetryJSONLDijkstra(b *testing.B) {
	benchRun(b, "dijkstra", arch.SweepEmptyBit, func() telemetry.Sink { return telemetry.NewJSONLSink(io.Discard) })
}
