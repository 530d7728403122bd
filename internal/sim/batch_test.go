package sim_test

// RunBatch's per-lane contract: lane i of a batch must be byte-identical
// to a scalar Run on Sources[i] — same Result, same NVM image — across the
// full scheme matrix under the RF-Home harvested trace, and a lane's
// failure or cancellation stays in its own error slot.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func compileFor(t testing.TB, w workloads.Workload, k arch.Kind, p config.Params) *ir.Linked {
	t.Helper()
	cres, err := core.Compile(func() *ir.Program { return w.Build(1) }, k, p)
	if err != nil {
		t.Fatalf("compile %s for %v: %v", w.Name, k, err)
	}
	return cres.Linked
}

// runScalarSeed runs the scalar engine on one RF-Home seed.
func runScalarSeed(t testing.TB, l *ir.Linked, k arch.Kind, p config.Params, seed int64) *sim.Result {
	t.Helper()
	res, err := sim.Run(l, arch.New(k, p), sim.Options{Source: trace.New(trace.RFHome, seed)})
	if err != nil {
		t.Fatalf("scalar run on %v seed %d: %v", k, seed, err)
	}
	return res
}

// diffLane fails the test if a batch lane's result differs from the
// scalar reference in any field, using the repo's established NVM-then-
// DeepEqual comparison.
func diffLane(t *testing.T, label string, ref, got *sim.Result) {
	t.Helper()
	if !ref.NVM.Equal(got.NVM) {
		t.Errorf("%s: NVM images differ, first byte at %#x", label, ref.NVM.FirstDiff(got.NVM))
	}
	refCopy, gotCopy := *ref, *got
	refCopy.NVM, gotCopy.NVM = nil, nil
	if !reflect.DeepEqual(&refCopy, &gotCopy) {
		t.Errorf("%s: results differ:\nscalar: %+v\nbatch:  %+v", label, &refCopy, &gotCopy)
	}
}

// batchCell runs RunBatch over seeds 1..width on one (workload, kind)
// cell and compares every lane to its scalar reference.
func batchCell(t *testing.T, w workloads.Workload, k arch.Kind, width int) {
	t.Helper()
	p := config.Default()
	l := compileFor(t, w, k, p)
	schemes := make([]arch.Scheme, width)
	opt := sim.BatchOptions{Sources: make([]trace.Source, width)}
	for i := range schemes {
		schemes[i] = arch.New(k, p)
		opt.Sources[i] = trace.New(trace.RFHome, int64(i+1))
	}
	results, errs, err := sim.RunBatch(l, schemes, opt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("lane %d failed: %v", i, errs[i])
		}
		ref := runScalarSeed(t, l, k, p, int64(i+1))
		diffLane(t, w.Name+"/"+k.String()+"/lane"+string(rune('0'+i)), ref, results[i])
	}
}

func TestRunBatchMatchesScalar(t *testing.T) {
	ws := quickWorkloads(t)
	if testing.Short() {
		// The -race CI job runs a two-workload subset; the full 8×8
		// matrix runs in the regular test job.
		short := map[string]bool{"sha": true, "fft": true}
		var sub []workloads.Workload
		for _, w := range ws {
			if short[w.Name] {
				sub = append(sub, w)
			}
		}
		ws = sub
	}
	for _, w := range ws {
		for _, k := range arch.AllKinds() {
			w, k := w, k
			t.Run(w.Name+"/"+k.String(), func(t *testing.T) {
				t.Parallel()
				batchCell(t, w, k, 8)
			})
		}
	}
}

// TestRunBatchWidths covers one-lane and odd-width batches.
func TestRunBatchWidths(t *testing.T) {
	for _, width := range []int{1, 2, 3} {
		width := width
		t.Run(string(rune('0'+width)), func(t *testing.T) {
			t.Parallel()
			batchCell(t, quickWorkload(t, "sha"), arch.SweepEmptyBit, width)
		})
	}
}

func quickWorkload(t testing.TB, name string) workloads.Workload {
	t.Helper()
	for _, w := range workloads.All() {
		if w.Name == name {
			return w
		}
	}
	t.Fatalf("workload %s not found", name)
	return workloads.Workload{}
}

// TestRunBatchLaneErrorIsolation gives one lane a supply too weak to
// ever recharge: that lane must fail with ErrStagnation while its
// neighbours complete bit-identical to their scalar references.
func TestRunBatchLaneErrorIsolation(t *testing.T) {
	t.Parallel()
	k := arch.SweepEmptyBit
	p := config.Default()
	w := quickWorkload(t, "sha")
	l := compileFor(t, w, k, p)
	schemes := []arch.Scheme{arch.New(k, p), arch.New(k, p), arch.New(k, p)}
	opt := sim.BatchOptions{Sources: []trace.Source{
		trace.New(trace.RFHome, 1),
		&trace.Constant{P: 1e-6, Label: "weak"},
		trace.New(trace.RFHome, 2),
	}}
	results, errs, err := sim.RunBatch(l, schemes, opt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if !errors.Is(errs[1], sim.ErrStagnation) {
		t.Errorf("weak lane: want ErrStagnation, got %v", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("healthy lane %d failed: %v", i, errs[i])
		}
		seed := int64(1)
		if i == 2 {
			seed = 2
		}
		ref := runScalarSeed(t, l, k, p, seed)
		diffLane(t, "healthy lane", ref, results[i])
	}
}

// TestRunBatchPreCanceled: a batch handed an already-canceled context
// does no work and fails every lane with a CanceledError, mirroring
// Run's pre-canceled contract.
func TestRunBatchPreCanceled(t *testing.T) {
	t.Parallel()
	k := arch.SweepEmptyBit
	p := config.Default()
	l := compileFor(t, quickWorkload(t, "sha"), k, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	schemes := []arch.Scheme{arch.New(k, p), arch.New(k, p)}
	opt := sim.BatchOptions{
		Ctx:     ctx,
		Sources: []trace.Source{trace.New(trace.RFHome, 1), trace.New(trace.RFHome, 2)},
	}
	results, errs, err := sim.RunBatch(l, schemes, opt)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i := range errs {
		var ce *sim.CanceledError
		if !errors.As(errs[i], &ce) || !errors.Is(errs[i], context.Canceled) {
			t.Errorf("lane %d: want CanceledError wrapping context.Canceled, got %v", i, errs[i])
		}
		if results[i] == nil {
			t.Errorf("lane %d: want a (partial) result even when canceled", i)
		}
	}
}

// TestRunBatchValidation covers the batch-level configuration errors.
func TestRunBatchValidation(t *testing.T) {
	t.Parallel()
	p := config.Default()
	l := compileFor(t, quickWorkload(t, "sha"), arch.SweepEmptyBit, p)
	src := func() trace.Source { return trace.New(trace.RFHome, 1) }

	if _, _, err := sim.RunBatch(l, nil, sim.BatchOptions{}); err == nil {
		t.Error("empty batch: want error")
	}
	one := arch.New(arch.SweepEmptyBit, p)
	if _, _, err := sim.RunBatch(l, []arch.Scheme{one}, sim.BatchOptions{}); err == nil {
		t.Error("scheme/source count mismatch: want error")
	}
	if _, _, err := sim.RunBatch(l, []arch.Scheme{one, one},
		sim.BatchOptions{Sources: []trace.Source{src(), src()}}); err == nil {
		t.Error("duplicate scheme instance: want error")
	}
	if _, _, err := sim.RunBatch(l, []arch.Scheme{arch.New(arch.SweepEmptyBit, p), arch.New(arch.NVP, p)},
		sim.BatchOptions{Sources: []trace.Source{src(), src()}}); err == nil {
		t.Error("mixed scheme kinds: want error")
	}
	if _, _, err := sim.RunBatch(l, []arch.Scheme{arch.New(arch.SweepEmptyBit, p), arch.New(arch.SweepEmptyBit, p)},
		sim.BatchOptions{Sources: []trace.Source{src(), nil}}); err == nil {
		t.Error("nil source: want error")
	}
}
