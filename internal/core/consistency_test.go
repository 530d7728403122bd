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

// smallBuilder shrinks a workload for test speed while keeping its shape.
func smallBuilder(w workloads.Workload) core.Builder {
	return func() *ir.Program { return w.Build(1) }
}

// TestAllWorkloadsAllSchemesOutageFree is the master functional test:
// every workload must produce the same checksum on every scheme under an
// ideal supply — the memory hierarchies must never change program
// semantics.
func TestAllWorkloadsAllSchemesOutageFree(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	p := config.Default()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			build := smallBuilder(w)
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
			}
		})
	}
}

// TestLeastStoreThresholdRuns: the least store threshold Validate accepts
// leaves room for every region's boundary stores, so every workload runs
// to the right checksum on the kinds whose compiler forms regions,
// outage-free and under RFOffice. jpegenc, the one left under -short,
// overflows a persist buffer at threshold 2.
func TestLeastStoreThresholdRuns(t *testing.T) {
	p := config.Default()
	p.StoreThreshold = 3
	for _, w := range workloads.All() {
		if testing.Short() && w.Name != "jpegenc" {
			continue
		}
		build := smallBuilder(w)
		golden, err := core.Run(build, arch.NVP, config.Default(), nil)
		if err != nil {
			t.Fatal(err)
		}
		want := golden.NVM.PeekWord(workloads.CheckAddr())
		for _, kind := range []arch.Kind{arch.SweepNVMSearch, arch.SweepEmptyBit, arch.ReplayCache} {
			for _, src := range []trace.Source{nil, trace.New(trace.RFOffice, 1)} {
				res, err := core.Run(build, kind, p, src)
				if err != nil {
					t.Errorf("%s on %v (source %v): %v", w.Name, kind, src, err)
				} else if got := res.NVM.PeekWord(workloads.CheckAddr()); got != want {
					t.Errorf("%s on %v (source %v): checksum %#x, want %#x", w.Name, kind, src, got, want)
				}
			}
		}
	}
}

// TestCrashConsistencyAllSchemes injects real power failures (several
// seeds of the harsh RFOffice trace) into every scheme on a few
// representative workloads and demands the final checksum match the
// outage-free run, and the whole final NVM image match the same kind's
// outage-free image (the Sweep kinds also write their checkpoint and PC
// slots) — the paper's correctness claim, verified end to end. jpegdec
// and jpegenc update their data in place, which exposes a region whose
// stores leak to NVM before it commits.
func TestCrashConsistencyAllSchemes(t *testing.T) {
	p := config.Default()
	names := []string{"adpcmenc", "jpegdec", "sha", "patricia", "jpegenc"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			build := smallBuilder(w)
			golden, err := core.Run(build, arch.NVP, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := golden.NVM.PeekWord(workloads.CheckAddr())
			for _, kind := range arch.AllKinds() {
				quiet, err := core.Run(build, kind, p, nil)
				if err != nil {
					t.Fatalf("%v outage-free: %v", kind, err)
				}
				image := quiet.NVM.ContentHash()
				for seed := int64(1); seed <= 3; seed++ {
					res, err := core.Run(build, kind, p, trace.New(trace.RFOffice, seed))
					if err != nil {
						t.Fatalf("%v seed %d: %v", kind, seed, err)
					}
					got := res.NVM.PeekWord(workloads.CheckAddr())
					if got != want {
						t.Errorf("%v seed %d: checksum %#x after %d outages, want %#x",
							kind, seed, got, res.Outages, want)
					}
					if res.NVM.ContentHash() != image {
						t.Errorf("%v seed %d: final NVM image after %d outages differs from the outage-free run's",
							kind, seed, res.Outages)
					}
				}
			}
		})
	}
}

// TestOutagesActuallyHappen guards the crash tests against becoming
// vacuous: under RFOffice at 470 nF every scheme must see real outages.
func TestOutagesActuallyHappen(t *testing.T) {
	p := config.Default()
	w, err := workloads.ByName("adpcmenc")
	if err != nil {
		t.Fatal(err)
	}
	build := smallBuilder(w)
	for _, kind := range arch.AllKinds() {
		res, err := core.Run(build, kind, p, trace.New(trace.RFOffice, 7))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Outages == 0 {
			t.Errorf("%v: no outages under RFOffice", kind)
		}
	}
}
