package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
)

// more reports whether unit i of a window that began at start should run:
// the first always (and in a traced run the second, so that one traced
// unit exists), then any until the window has elapsed.
func (c *runConfig) more(i int, start time.Time) bool {
	minUnits := 1
	if c.traced {
		minUnits = 2
	}
	return i < minUnits || time.Since(start).Seconds() < c.seconds
}

// measure runs unit repeatedly while cfg.more allows and returns each
// unit's time and the whole window's, scaled.
func measure(cfg *runConfig, unit func(i int) error) (units []float64, window float64, err error) {
	start := time.Now()
	for i := 0; cfg.more(i, start); i++ {
		settle()
		t := time.Now()
		if err := unit(i); err != nil {
			return nil, 0, err
		}
		units = append(units, cfg.scale(since(t)))
	}
	return units, cfg.scale(since(start)), nil
}

// settle collects garbage and returns free memory to the OS before a
// unit, so every unit starts from the same heap and peak_rss_mb does not
// depend on when the collector last ran.
func settle() { debug.FreeOSMemory() }

// alternating reports which of n units a traced run traced (odd ones).
func alternating(n int, traced bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = traced && i%2 == 1
	}
	return out
}

// median returns the middle of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuUtil is the share of the host's schedulable CPU the process used
// between two cpuSeconds readings taken window seconds apart.
func cpuUtil(cpu0, cpu1, window float64) float64 {
	return (cpu1 - cpu0) / (window * float64(runtime.GOMAXPROCS(0)))
}

// mix is a splitmix64 step: a seeded, stateless hash for generating
// per-index decisions that do not depend on timing.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitFloat maps a hash to [0, 1).
func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// corruptString flips the first character of s, for the self-test that
// proves an output check can fail.
func corruptString(s string) string {
	if s == "" {
		return "x"
	}
	b := []byte(s)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

// probeEnv, when set in the environment, makes the binary time its own
// start-up for the named workload and exit (see startupSamples).
const probeEnv = "PERFBENCH_STARTUP_PROBE"

// startupProbes is how many process starts one run times for setup_s.
const startupProbes = 9

// startupSamples re-executes this binary startupProbes times in probe
// mode and returns each run's time from exec to exit, scaled: the set-up
// a fresh process pays (runtime and package initialisation plus the
// workload's context construction) before its first timed operation.
func startupSamples(cfg *runConfig) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, startupProbes)
	for i := 0; i < startupProbes; i++ {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), probeEnv+"="+cfg.workload)
		cmd.Stdout, cmd.Stderr = io.Discard, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("start-up probe: %w", err)
		}
		out = append(out, cfg.scale(since(start)))
	}
	return out, nil
}

// probeMain is the probe-mode process: it builds what the workload builds
// before its first operation, then exits.
func probeMain(workload string) int {
	switch workload {
	case "evaluation", "seedsweep":
		c := exp.DefaultContext()
		if err := c.Params.Validate(); err != nil || len(c.Workloads()) == 0 {
			return 1
		}
		trace.FlushSharedTapes()
	default:
		svc, err := service.New(service.Config{Log: quietLog})
		if err != nil {
			return 1
		}
		svc.Handler(obs.NewRunInfo("sweepd", sim.EngineVersion))
		svc.Close()
	}
	return 0
}

// contextBlock is recorded with every result, so a figure can be traced
// back to the machine, toolchain and source it came from.
func contextBlock(cfg *runConfig) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"commit":        gitCommit(cfg.root),
		"source_sha256": sourceDigest(cfg.root),
		"engine":        sim.EngineVersion,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from root/.git without running git; a checkout
// without a .git directory reports "none" (source_sha256 still pins it).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, l := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes go.mod and every Go file of the program (cmd and
// internal), in path order: the identity of the code measured.
func sourceDigest(root string) string {
	var paths []string
	for _, sub := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(filepath.Join(root, sub), func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range append([]string{filepath.Join(root, "go.mod")}, paths...) {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
