package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	// The start-up probes re-execute the running binary, which here is
	// the test binary.
	if w := os.Getenv(probeEnv); w != "" {
		os.Exit(probeMain(w))
	}
	os.Exit(m.Run())
}

// lastLine parses the JSON result line a report ends with.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return line
}

// checkMetrics asserts that line reports exactly defs, each with its unit.
func checkMetrics(t *testing.T, line resultLine, defs []metricDef, positive bool) {
	t.Helper()
	if len(line.Metrics) != len(defs) {
		t.Errorf("got %d metrics, want %d", len(line.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := line.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case v.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		case positive && !(v.Value > 0):
			t.Errorf("metric %s = %v, want > 0", m.name, v.Value)
		}
	}
}

// TestWorkloads runs every workload for about one unit of work, untraced:
// each reports every end-to-end metric with its unit, its output check
// passes, and the same check fails once its expectation is corrupted.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once (about a minute)")
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := &runConfig{workload: name, seed: 1, seconds: 0.5, root: ".."}
			o, err := execute(cfg, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := report(&buf, cfg, o, ""); err != nil {
				t.Fatal(err)
			}
			line := lastLine(t, buf.String())
			checkMetrics(t, line, endToEnd, true)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", line.Correct, line.Failed, line.Attempted)
			}
			if bad := o.check(true); bad == 0 {
				t.Error("output check passed against a corrupted expectation")
			}
		})
	}
}

// TestTracedRun runs the cheapest workload traced: it reports every
// per-layer metric with its unit and writes a Chrome trace_event file
// with one track per worker.
func TestTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a traced campaign")
	}
	dir := t.TempDir()
	cfg := &runConfig{workload: "dist", seed: 1, seconds: 0.5, traced: true, root: ".."}
	var buf bytes.Buffer
	if err := run(cfg, dir, &buf); err != nil {
		t.Fatal(err)
	}
	line := lastLine(t, buf.String())
	checkMetrics(t, line, perLayer, false)
	if v := line.Metrics["dist.lease_ms.p50"].Value; !(v > 0) {
		t.Errorf("dist.lease_ms.p50 = %v on the dist workload", v)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-dist-1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	tracks := map[string]bool{}
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" {
			tracks[e.Args["name"].(string)] = true
		}
	}
	for _, want := range []string{"coordinator", "worker-0", "worker-1"} {
		if !tracks[want] {
			t.Errorf("trace has no %s track (tracks %v)", want, tracks)
		}
	}
}
