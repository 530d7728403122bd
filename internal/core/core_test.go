package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func builder(t *testing.T, name string) core.Builder {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return func() *ir.Program { return w.Build(1) }
}

// TestOutageFreeSchemesAgree runs one workload on every scheme without
// power failure and demands the identical checksum: the memory hierarchies
// must be functionally transparent.
func TestOutageFreeSchemesAgree(t *testing.T) {
	build := builder(t, "adpcmenc")
	p := config.Default()
	var ref int64
	for i, kind := range arch.AllKinds() {
		res, err := core.Run(build, kind, p, nil)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		sum := res.NVM.PeekWord(workloads.CheckAddr())
		if sum == 0 {
			t.Fatalf("%v: zero checksum", kind)
		}
		if i == 0 {
			ref = sum
		} else if sum != ref {
			t.Errorf("%v: checksum %#x, want %#x", kind, sum, ref)
		}
		t.Logf("%-16v time=%.3fms instrs=%d sum=%#x", kind,
			float64(res.TimeNs)/1e6, res.Counts.Executed, sum)
	}
}

// TestCrashConsistencySweep runs SweepCache under a harsh RF trace and
// checks the final data segment matches the outage-free run bit for bit —
// the paper's central crash-consistency claim.
func TestCrashConsistencySweep(t *testing.T) {
	build := builder(t, "adpcmenc")
	p := config.Default()
	golden, err := core.Run(build, arch.SweepEmptyBit, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []arch.Kind{arch.SweepEmptyBit, arch.SweepNVMSearch} {
		res, err := core.Run(build, kind, p, trace.New(trace.RFOffice, 42))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Outages == 0 {
			t.Errorf("%v: expected outages under RFOffice", kind)
		}
		got := res.NVM.PeekWord(workloads.CheckAddr())
		want := golden.NVM.PeekWord(workloads.CheckAddr())
		if got != want {
			t.Errorf("%v: checksum %#x after %d outages, want %#x", kind, got, res.Outages, want)
		}
		if s := core.Speedup(res, golden); s <= 1 {
			t.Errorf("%v: outage-free run only %.3fx as fast as the RFOffice run", kind, s)
		}
		t.Logf("%v: outages=%d time=%.1fms charge=%.1fms", kind, res.Outages,
			float64(res.TimeNs)/1e6, float64(res.ChargeNs)/1e6)
	}
}
