package exp

import (
	"strings"
	"testing"

	"repro/internal/arch"
)

func TestBarChartRendering(t *testing.T) {
	out := barChart("title", []barRow{
		{"alpha", 10},
		{"b", 5},
		{"longest-label", 0},
	}, 20)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 || lines[0] != "title" {
		t.Fatalf("layout:\n%s", out)
	}
	// The max value fills the width; half value fills half.
	if !strings.Contains(lines[1], strings.Repeat("█", 20)) {
		t.Errorf("max bar not full width: %q", lines[1])
	}
	if !strings.Contains(lines[2], strings.Repeat("█", 10)) || strings.Contains(lines[2], strings.Repeat("█", 11)) {
		t.Errorf("half bar wrong: %q", lines[2])
	}
	if strings.Contains(lines[3], "█") {
		t.Errorf("zero bar drew blocks: %q", lines[3])
	}
}

func TestBarChartEmptyAndZeroMax(t *testing.T) {
	out := barChart("t", []barRow{{"a", 0}}, 10)
	if !strings.Contains(out, "0.00") {
		t.Error("zero row missing")
	}
	if out := barChart("t", nil, 10); !strings.HasPrefix(out, "t\n") {
		t.Error("empty chart")
	}
}

func TestSpeedupChartAndCSV(t *testing.T) {
	r, err := quickCtx().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	chart := r.Chart()
	for _, k := range arch.EvalKinds() {
		if !strings.Contains(chart, k.String()) {
			t.Errorf("chart missing %v:\n%s", k, chart)
		}
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	// Header + one row per workload + geomean.
	if len(lines) != len(r.Matrix.Names)+2 {
		t.Errorf("csv rows = %d, want %d", len(lines), len(r.Matrix.Names)+2)
	}
	if !strings.HasPrefix(lines[0], "benchmark,") {
		t.Error("csv header")
	}
	if !strings.HasPrefix(lines[len(lines)-1], "geomean,") {
		t.Error("csv geomean row")
	}
}

func TestFig12CSV(t *testing.T) {
	r, err := quickCtx().Fig12()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 100 {
		t.Errorf("cdf rows = %d", len(lines))
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "1.000000") {
		t.Errorf("CDF does not reach 1: %q", last)
	}
}

func TestRecoveryExperiment(t *testing.T) {
	r, err := quickCtx().Recovery()
	if err != nil {
		t.Fatal(err)
	}
	// NVSRAM-E restores the whole cache: slowest restore of the JIT set.
	if r.AvgRestoreNs[arch.NVSRAME] <= r.AvgRestoreNs[arch.NVP] {
		t.Errorf("NVSRAM-E restore (%f) not slower than NVP (%f)",
			r.AvgRestoreNs[arch.NVSRAME], r.AvgRestoreNs[arch.NVP])
	}
	for k, v := range r.AvgRestoreNs {
		if v < 0 {
			t.Errorf("%v: negative restore time", k)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	r, err := quickCtx().Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if r.Full[0] <= r.NoUnroll[0] {
		t.Errorf("unrolling should help outage-free: full %.2f vs no-unroll %.2f",
			r.Full[0], r.NoUnroll[0])
	}
	if r.Full[1] <= r.SingleBuffer[1] {
		t.Errorf("dual buffering should help under outages: full %.2f vs single %.2f",
			r.Full[1], r.SingleBuffer[1])
	}
	if !strings.Contains(r.Chart(), "single-buffer") {
		t.Error("ablation chart missing variant")
	}
}
