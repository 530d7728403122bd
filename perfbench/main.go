// Command perfbench is the repository benchmark. One invocation runs one
// named workload in-process for a measuring window, checks the workload's
// outputs, and prints one JSON result object as the last line of standard
// output. An untraced run reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics and writes its spans as a
// Chrome trace_event file. See README.md for the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench -workload serve -seed 7 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"req_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is what a traced run reports, on every workload. A layer the
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.compile_s", "s"},
	{"core.compile_misses", "count"},
	{"trace.tape_s", "s"},
	{"sim.ns_per_instr.outage_free", "ns"},
	{"sim.ns_per_instr.harvested", "ns"},
	{"sim.instrs", "count"},
	{"sim.outages", "count"},
	{"batch.ns_per_lane_instr", "ns"},
	{"batch.gain_vs_scalar", "ratio"},
	{"host.cpu_util", "ratio"},
	{"journal.append_us.p50", "us"},
	{"journal.append_us.p99", "us"},
	{"journal.open_s", "s"},
	{"store.mem_hit_us", "us"},
	{"store.disk_hit_us", "us"},
	{"store.hit_ratio", "ratio"},
	{"store.sims_per_missed_key", "ratio"},
	{"service.cell_us", "us"},
	{"service.http_us", "us"},
	{"service.resp_bytes", "bytes"},
	{"dist.lease_ms.p50", "ms"},
	{"dist.lease_ms.p99", "ms"},
	{"dist.leases_per_cell", "ratio"},
	{"dist.coord_ms_per_cell", "ms"},
	{"tracing.overhead", "ratio"},
}

// runners maps each workload name to its runner.
var runners = map[string]func(cfg *runConfig) (*outcome, error){
	"evaluation": runEvaluation,
	"seedsweep":  runSeedsweep,
	"serve":      runServe,
	"dist":       runDist,
}

func workloadNames() []string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// root is the repository root the golden files are read from.
	root string
	// dir is this run's private scratch directory (stores, journals).
	dir string
	// spans records the traced run's spans; nil when untraced.
	spans *recorder
	// speed samples the host core's speed while the workload runs.
	speed *speedometer
}

// scale rescales a measured interval to reference-core seconds.
func (c *runConfig) scale(t timing) float64 { return c.speed.scaled(t) }

// spansFor returns the recorder for unit i. A traced run alternates
// untraced (even) and traced (odd) units, so the two can be compared for
// the tracing overhead; an untraced run never records.
func (c *runConfig) spansFor(i int) *recorder {
	if i%2 == 0 {
		return nil
	}
	return c.spans
}

// outcome is what a workload runner measured. Its times are in
// reference-core seconds (see speed.go); the per-layer metrics are raw
// host times.
type outcome struct {
	attempted, failed int
	// setup holds the set-up time samples; their median is setup_s.
	setup []float64
	// units holds the time of each repetition of the workload's unit of
	// work; their median is wall_s.
	units []float64
	// traced marks which units recorded spans (traced runs only).
	traced []bool
	// lat holds each operation's latency.
	lat []float64
	// ops counts operations completed in window seconds, which simulated
	// instrs instructions.
	ops    int
	window float64
	instrs uint64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// notes are extra human-readable report lines.
	notes []string
	// check re-runs the output check and returns the failures it finds;
	// corrupt perturbs the expected values first, to prove the check can
	// fail.
	check func(corrupt bool) int
}

func main() {
	if w := os.Getenv(probeEnv); w != "" {
		os.Exit(probeMain(w))
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measuring window in seconds")
	traced := flag.Int("trace", 0, "1 runs traced: per-layer metrics and a Chrome trace")
	workdir := flag.String("workdir", ".bench_build", "directory for stores, journals and traces")
	flag.Parse()

	cfg := &runConfig{workload: *workload, seed: *seed, seconds: float64(*seconds), traced: *traced == 1, root: "."}
	if err := run(cfg, *workdir, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes cfg's workload in a scratch directory under workdir and
// prints its report to w.
func run(cfg *runConfig, workdir string, w io.Writer) error {
	o, err := execute(cfg, workdir)
	if err != nil {
		return err
	}
	tracePath := ""
	if cfg.traced {
		tracePath = filepath.Join(workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := cfg.spans.writeChrome(tracePath); err != nil {
			return err
		}
	}
	return report(w, cfg, o, tracePath)
}

// execute runs the workload and its output check.
func execute(cfg *runConfig, workdir string) (*outcome, error) {
	runner, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir
	if cfg.traced {
		cfg.spans = newRecorder()
	}
	cfg.speed = startSpeedometer()
	o, err := runner(cfg)
	cfg.speed.halt()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	o.failed += o.check(false)
	if cfg.traced {
		o.layers["tracing.overhead"] = tracingOverhead(o)
	}
	return o, nil
}

// tracingOverhead compares the median traced unit with the median
// untraced unit of a traced run.
func tracingOverhead(o *outcome) float64 {
	var on, off []float64
	for i, d := range o.units {
		if o.traced[i] {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	if len(on) == 0 || len(off) == 0 {
		return 0
	}
	return median(on)/median(off) - 1
}

// endToEndValues derives the end-to-end metrics from an outcome.
func endToEndValues(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":     median(o.setup),
		"wall_s":      median(o.units),
		"sim_mips":    float64(o.instrs) / o.window / 1e6,
		"req_per_s":   float64(o.ops) / o.window,
		"lat_p50_ms":  quantile(o.lat, 0.50) * 1e3,
		"lat_p99_ms":  quantile(o.lat, 0.99) * 1e3,
		"peak_rss_mb": peakRSSMB(),
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the context block, one line per metric, the error rate
// and, last, the JSON result line.
func report(w io.Writer, cfg *runConfig, o *outcome, tracePath string) error {
	ctxBlock, err := json.Marshal(contextBlock(cfg))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "context %s\n", ctxBlock)

	defs, values := endToEnd, map[string]float64(nil)
	if cfg.traced {
		defs, values = perLayer, o.layers
	} else {
		values = endToEndValues(o)
	}
	line := resultLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range defs {
		v := values[m.name]
		line.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %-30s %16.6f %s\n", m.name, v, m.unit)
	}
	fmt.Fprintf(w, "samples units=%d ops=%d latencies=%d setups=%d window_s=%.3f\n",
		len(o.units), o.ops, len(o.lat), len(o.setup), o.window)
	fmt.Fprintf(w, "units_s %.4f\n", o.units)
	for _, n := range o.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	n, cost := cfg.speed.samples()
	fmt.Fprintf(w, "speed %d reference-kernel samples, median %.1f us (times above are scaled to %.1f us)\n",
		n, cost*1e6, refNominal*1e6)
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "error_rate %g (%d failed of %d attempted)\n", rate, o.failed, o.attempted)
	if tracePath != "" {
		fmt.Fprintf(w, "trace %s (%d spans)\n", tracePath, cfg.spans.len())
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// quietLog discards the program's own logging, so standard output carries
// only the report.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))
