// Package benchfmt is the shared model of the repo's archived benchmark
// documents: `go test -bench` text parsed into a stable JSON shape
// (cmd/benchjson writes it, BENCH_engine.json stores it) plus the
// regression comparison cmd/benchcheck gates CI with.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is one archived benchmark run: the non-benchmark header lines
// (goos/goarch/pkg/cpu, plus whatever the writer injects — git commit,
// engine version, GOMAXPROCS) in Context, one Result per benchmark.
type Doc struct {
	Context map[string]string `json:"context"`
	Results []Result          `json:"results"`
}

// ParseLine parses one `BenchmarkX  N  v unit  v unit...` line.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: n, Metrics: map[string]float64{}}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, true
}

// Parse converts `go test -bench` text output into a Doc. Benchmark
// lines become Results; "key: value" header lines (goos, goarch, pkg,
// cpu) land in Context; everything else (PASS/ok trailers) is dropped.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{Context: map[string]string{}, Results: []Result{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if res, ok := ParseLine(line); ok {
			doc.Results = append(doc.Results, res)
			continue
		}
		if k, v, ok := strings.Cut(line, ":"); ok && !strings.Contains(k, " ") && v != "" {
			doc.Context[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: parse: %w", err)
	}
	return doc, nil
}

// ReadFile loads a JSON benchmark document.
func ReadFile(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("benchfmt: decode %s: %w", path, err)
	}
	return &doc, nil
}

// Encode renders the document as indented JSON with a trailing newline.
func (d *Doc) Encode() ([]byte, error) {
	enc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchfmt: encode: %w", err)
	}
	return append(enc, '\n'), nil
}

// Result returns the named benchmark's entry, or nil.
func (d *Doc) Result(name string) *Result {
	for i := range d.Results {
		if d.Results[i].Name == name {
			return &d.Results[i]
		}
	}
	return nil
}

// Delta is one benchmark's baseline-vs-current comparison on a metric.
type Delta struct {
	Name      string
	Base      float64
	Current   float64
	Ratio     float64 // Current / Base
	Regressed bool
}

// Change renders the relative change as a signed percentage.
func (d Delta) Change() string {
	return fmt.Sprintf("%+.1f%%", (d.Ratio-1)*100)
}

// Compare diffs every baseline benchmark carrying the metric against the
// current run. With higherBetter (throughput metrics like sim-instrs/s)
// a Delta regresses when current falls more than tolerance below
// baseline; otherwise (latency metrics like ns/op) when it rises more
// than tolerance above. Benchmarks absent from the current run, or a
// metric absent from every baseline entry, are reported as errors — a
// gate that silently compares nothing is worse than no gate. Names must
// match exactly: a run at GOMAXPROCS N > 1 suffixes every name with -N,
// so it matches none of a baseline recorded at GOMAXPROCS 1, and the
// error then names every baseline benchmark it could not find.
func Compare(base, cur *Doc, metric string, tolerance float64, higherBetter bool) ([]Delta, error) {
	var deltas []Delta
	var missing []string
	for _, b := range base.Results {
		bv, ok := b.Metrics[metric]
		if !ok {
			continue
		}
		c := cur.Result(b.Name)
		if c == nil {
			missing = append(missing, b.Name)
			continue
		}
		cv, ok := c.Metrics[metric]
		if !ok {
			missing = append(missing, b.Name)
			continue
		}
		if bv == 0 {
			return nil, fmt.Errorf("benchfmt: baseline %s has zero %s", b.Name, metric)
		}
		d := Delta{Name: b.Name, Base: bv, Current: cv, Ratio: cv / bv}
		if higherBetter {
			d.Regressed = d.Ratio < 1-tolerance
		} else {
			d.Regressed = d.Ratio > 1+tolerance
		}
		deltas = append(deltas, d)
	}
	if len(deltas) == 0 && missing == nil {
		return nil, fmt.Errorf("benchfmt: no baseline benchmark carries metric %q", metric)
	}
	if missing != nil {
		return deltas, fmt.Errorf("benchfmt: current run is missing %s for: %s",
			metric, strings.Join(missing, ", "))
	}
	return deltas, nil
}
