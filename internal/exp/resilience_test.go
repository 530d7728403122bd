package exp

// Resilience coverage for the experiment engine: the kill/resume
// invariant (a journaled run interrupted mid-matrix resumes to
// byte-identical digests), panic isolation, prompt cancellation, input
// validation, and the no-goroutine-leak guarantee.

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/trace"
)

// resilienceCtx is the shared quick configuration: 8 workloads x 8
// schemes under RF-Home, the matrix the acceptance criterion names.
func resilienceCtx() (*Context, []arch.Kind, *trace.Profile) {
	c := DefaultContext()
	c.Quick = true
	pr := trace.RFHome
	return c, arch.AllKinds(), &pr
}

// cleanDigests runs the matrix uninterrupted and returns the per-cell
// record digests plus the matrix itself. The digests come from the
// context store's records: a matrix result carries no NVM image, but the
// stored record's digest covers its hash.
func cleanDigests(t *testing.T) (map[journal.Cell]string, *Matrix) {
	t.Helper()
	c, kinds, pr := resilienceCtx()
	m, err := c.runMatrix(kinds, pr, c.Params, 1)
	if err != nil {
		t.Fatal(err)
	}
	fp := c.Params.Fingerprint()
	want := map[journal.Cell]string{}
	for _, name := range m.Names {
		for _, k := range kinds {
			id := c.CellID(name, k, pr, c.Seed, fp)
			rec, _, ok := c.store().Lookup(id)
			if !ok {
				t.Fatalf("cell %s/%v missing from the context store", name, k)
			}
			want[id] = rec.Digest()
		}
	}
	return want, m
}

// TestKillResumeInvariant is the acceptance criterion: interrupt a
// journaled 8x8 matrix mid-run, then resume with a fresh journal handle
// (a new process, as far as the journal is concerned) and require the
// final per-cell digests to be identical to an uninterrupted run's.
func TestKillResumeInvariant(t *testing.T) {
	want, cleanM := cleanDigests(t)
	path := filepath.Join(t.TempDir(), "cells.jsonl")

	// Phase 1: run with an injected cancellation partway through the
	// 64-cell matrix. The run must fail with a cancellation error, and
	// whatever completed must already be durable.
	j1, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Fsync = false
	c1, kinds, pr := resilienceCtx()
	c1.Journal = j1
	c1.Chaos = chaos.New(chaos.Config{Seed: 11, CancelAfter: 20})
	if _, err := c1.runMatrix(kinds, pr, c1.Params, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled in the chain", err)
	}
	j1.Close()
	st := j1.Stats()
	if st.Appends == 0 {
		t.Fatal("nothing was journaled before the cancellation — resume would restart from scratch")
	}
	if st.Appends >= 64 {
		t.Fatalf("all %d cells completed despite the injected cancel — nothing was interrupted", st.Appends)
	}
	t.Logf("interrupted with %d/64 cells journaled", st.Appends)

	// Phase 2: resume. A fresh Open replays the journal exactly as a new
	// process would; the run completes the missing cells only.
	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	j2.Fsync = false
	if got := j2.Stats().Loaded; got != st.Appends {
		t.Fatalf("journal reload recovered %d cells, %d were appended", got, st.Appends)
	}
	c2, kinds, pr := resilienceCtx()
	c2.Journal = j2
	m, err := c2.runMatrix(kinds, pr, c2.Params, 1)
	if err != nil {
		t.Fatalf("resume run failed: %v", err)
	}
	if hits := c2.store().Stats().DiskHits; hits != uint64(st.Appends) {
		t.Errorf("resume re-simulated journaled cells: %d disk hits, want %d", hits, st.Appends)
	}

	// Every cell's journal record must hash identically to the
	// uninterrupted run, whether it was simulated before or after the
	// interruption.
	for id, wd := range want {
		rec, ok := j2.Lookup(id)
		if !ok {
			t.Errorf("cell %s/%s missing from resumed journal", id.Workload, id.Scheme)
			continue
		}
		if d := rec.Digest(); d != wd {
			t.Errorf("digest mismatch for %s/%s:\n clean   %s\n resumed %s",
				id.Workload, id.Scheme, wd, d)
		}
	}
	// And the resumed matrix must serve the figures identically.
	for _, name := range m.Names {
		for _, k := range kinds {
			a, b := cleanM.Get(name, k), m.Get(name, k)
			if a.TimeNs != b.TimeNs || a.Ledger != b.Ledger || a.Counts != b.Counts {
				t.Errorf("resumed result diverges for %s/%v", name, k)
			}
		}
	}
}

// TestPanicIsolationAndConvergence injects worker panics at 30%
// probability and requires: (1) a failing run still journals its healthy
// cells and reports every panicked cell as a *CellError with a stack;
// (2) repeated resumes converge (attempt-salted decisions redraw), ending
// byte-identical to a clean run.
func TestPanicIsolationAndConvergence(t *testing.T) {
	want, _ := cleanDigests(t)
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Fsync = false

	c, kinds, pr := resilienceCtx()
	c.Journal = j
	c.Chaos = chaos.New(chaos.Config{Seed: 5, PanicProb: 0.3})

	var lastErr error
	for attempt := 1; ; attempt++ {
		if attempt > 20 {
			t.Fatalf("matrix did not converge in 20 attempts; last error: %v", lastErr)
		}
		m, err := c.runMatrix(kinds, pr, c.Params, 1)
		if err == nil {
			if m == nil || len(m.Results) == 0 {
				t.Fatal("converged run returned an empty matrix")
			}
			break
		}
		lastErr = err
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("attempt %d: error chain lacks *CellError: %v", attempt, err)
		}
		if ce.Stack == nil {
			t.Fatalf("attempt %d: panicked cell has no captured stack: %v", attempt, ce)
		}
		if !strings.Contains(ce.Err.Error(), "injected panic") {
			t.Fatalf("attempt %d: unexpected cell failure: %v", attempt, ce)
		}
	}
	if c.Chaos.Panics() == 0 {
		t.Fatal("no panics were injected — the test exercised nothing")
	}
	if j.Len() != len(want) {
		t.Fatalf("converged journal holds %d cells, want %d", j.Len(), len(want))
	}
	for id, wd := range want {
		rec, ok := j.Lookup(id)
		if !ok || rec.Digest() != wd {
			t.Errorf("post-convergence digest mismatch for %s/%s", id.Workload, id.Scheme)
		}
	}
}

// TestRunMatrixNoGoroutineLeak drives the pool through cancellation and
// panic storms and requires the process goroutine count to settle back:
// no orphaned workers, whatever the exit path.
func TestRunMatrixNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	// Cancelled mid-run.
	c, kinds, pr := resilienceCtx()
	c.Chaos = chaos.New(chaos.Config{Seed: 1, CancelAfter: 5})
	if _, err := c.runMatrix(kinds, pr, c.Params, 1); err == nil {
		t.Fatal("cancelled run reported success")
	}
	// Every cell panicking.
	c2, kinds, pr := resilienceCtx()
	c2.Chaos = chaos.New(chaos.Config{Seed: 2, PanicProb: 1})
	if _, err := c2.runMatrix(kinds, pr, c2.Params, 1); err == nil {
		t.Fatal("all-panic run reported success")
	}
	// Pre-cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c3, kinds, pr := resilienceCtx()
	c3.Ctx = ctx
	if _, err := c3.runMatrix(kinds, pr, c3.Params, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunMatrixInputValidation: malformed params and empty workload sets
// fail up front with descriptive errors, before any worker spawns.
func TestRunMatrixInputValidation(t *testing.T) {
	c, kinds, pr := resilienceCtx()
	p := c.Params
	p.CapacitorF = -1
	if _, err := c.runMatrix(kinds, pr, p, 1); err == nil || !strings.Contains(err.Error(), "config:") {
		t.Errorf("malformed params: err = %v", err)
	}

	c2, kinds, pr := resilienceCtx()
	c2.Only = []string{"no-such-workload"}
	if _, err := c2.runMatrix(kinds, pr, c2.Params, 1); err == nil || !strings.Contains(err.Error(), "empty workload") {
		t.Errorf("empty workload set: err = %v", err)
	}

	// A cache geometry Validate passes but the cache model rejects (24
	// sets, not a power of two) panics each cached cell's machine: every
	// such cell fails as a *CellError carrying the panic's stack, under a
	// power trace too, where the outage-free matrix before it made the
	// cells' twins known to the context.
	c3, _, pr := resilienceCtx()
	c3.Only = []string{"sha"}
	p = c3.Params
	p.CacheSize = 3 << 10
	for _, profile := range []*trace.Profile{nil, pr} {
		_, err := c3.runMatrix([]arch.Kind{arch.NVSRAM}, profile, p, 1)
		var ce *CellError
		if !errors.As(err, &ce) || ce.Stack == nil || ce.Scheme != arch.NVSRAM.String() {
			t.Errorf("unbuildable cache under %s: err = %v", profileName(profile), err)
		}
	}
}

// TestCellTimeout bounds one cell's wall clock at an impossible 1 ns:
// every cell must fail with DeadlineExceeded as a genuine per-cell error
// (the matrix itself was not cancelled).
func TestCellTimeout(t *testing.T) {
	c, _, pr := resilienceCtx()
	c.Only = []string{"sha"}
	c.CellTimeout = time.Nanosecond
	_, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, pr, c.Params, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
}
