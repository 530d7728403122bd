package benchfmt

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkEngineStep-8   	 1000000	      1052 ns/op	        16.50 instrs/step	 950000 sim-instrs/s
BenchmarkRunRFHome-8    	       3	 712345678 ns/op	1234567 sim-instrs/s
PASS
ok  	repro	4.123s
`

func TestParse(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Context["goos"] != "linux" || doc.Context["cpu"] != "AMD EPYC 7B13" {
		t.Fatalf("context: %v", doc.Context)
	}
	if len(doc.Results) != 2 {
		t.Fatalf("results: %d, want 2", len(doc.Results))
	}
	r := doc.Result("BenchmarkEngineStep-8")
	if r == nil {
		t.Fatal("EngineStep missing")
	}
	if r.Iterations != 1000000 || r.Metrics["ns/op"] != 1052 ||
		r.Metrics["instrs/step"] != 16.5 || r.Metrics["sim-instrs/s"] != 950000 {
		t.Fatalf("EngineStep: %+v", r)
	}
	// PASS / ok trailers must not leak into context or results.
	if _, ok := doc.Context["ok"]; ok {
		t.Fatalf("trailer leaked into context: %v", doc.Context)
	}
	if doc.Result("PASS") != nil {
		t.Fatal("trailer parsed as result")
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"ok  	repro	4.123s",
		"Benchmark",                     // no fields
		"BenchmarkX notanint 5 ns/op",   // bad iteration count
		"BenchmarkX 10 notafloat ns/op", // bad value
		"goos: linux",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine(%q) accepted", line)
		}
	}
}

func mkdoc(vals map[string]float64) *Doc {
	d := &Doc{Context: map[string]string{}}
	for name, v := range vals {
		d.Results = append(d.Results, Result{
			Name: name, Iterations: 1,
			Metrics: map[string]float64{"sim-instrs/s": v},
		})
	}
	return d
}

func TestCompareHigherBetter(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100, "C": 100})
	cur := mkdoc(map[string]float64{"A": 90, "B": 84, "C": 120})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 3 {
		t.Fatalf("deltas: %d", len(deltas))
	}
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Name] = d.Regressed
	}
	// -10% within tolerance, -16% regressed, +20% (improvement) fine.
	if got["A"] || !got["B"] || got["C"] {
		t.Fatalf("regression flags: %v", got)
	}
}

func TestCompareLowerBetter(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100})
	cur := mkdoc(map[string]float64{"A": 120, "B": 80})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, d := range deltas {
		got[d.Name] = d.Regressed
	}
	// For a lower-better metric +20% regresses, -20% improves.
	if !got["A"] || got["B"] {
		t.Fatalf("regression flags: %v", got)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100, "B": 100})
	cur := mkdoc(map[string]float64{"A": 100})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, true)
	if err == nil || !strings.Contains(err.Error(), "B") {
		t.Fatalf("err = %v, want missing-B error", err)
	}
	if len(deltas) != 1 || deltas[0].Name != "A" {
		t.Fatalf("partial deltas: %+v", deltas)
	}
}

// A current run at GOMAXPROCS 2 names its benchmarks BenchmarkX-2, which
// match none of a baseline recorded at GOMAXPROCS 1. The error must name
// the baseline benchmarks that went unmatched, not blame the metric.
func TestCompareProcSuffixNamesMissing(t *testing.T) {
	base := mkdoc(map[string]float64{"BenchmarkX": 100})
	cur := mkdoc(map[string]float64{"BenchmarkX-2": 100})
	deltas, err := Compare(base, cur, "sim-instrs/s", 0.15, true)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkX") {
		t.Fatalf("err = %v, want an error naming BenchmarkX", err)
	}
	if len(deltas) != 0 {
		t.Fatalf("deltas = %+v, want none", deltas)
	}
}

func TestCompareNoMetricCarrier(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 100})
	cur := mkdoc(map[string]float64{"A": 100})
	if _, err := Compare(base, cur, "widgets/s", 0.15, true); err == nil {
		t.Fatal("want no-carrier error")
	}
}

func TestCompareZeroBaseline(t *testing.T) {
	base := mkdoc(map[string]float64{"A": 0})
	cur := mkdoc(map[string]float64{"A": 100})
	if _, err := Compare(base, cur, "sim-instrs/s", 0.15, true); err == nil {
		t.Fatal("want zero-baseline error")
	}
}

func TestDeltaChange(t *testing.T) {
	if got := (Delta{Ratio: 0.825}).Change(); got != "-17.5%" {
		t.Fatalf("Change() = %q", got)
	}
	if got := (Delta{Ratio: 1.003}).Change(); got != "+0.3%" {
		t.Fatalf("Change() = %q", got)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	doc, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	doc.Context["git-commit"] = "deadbeef"
	enc, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if enc[len(enc)-1] != '\n' {
		t.Fatal("missing trailing newline")
	}
	if !strings.Contains(string(enc), `"git-commit": "deadbeef"`) {
		t.Fatalf("context lost:\n%s", enc)
	}
}
