package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/compiler"
	"repro/internal/config"
	"repro/internal/ir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func compiled(t *testing.T, name string, kind arch.Kind) *ir.Linked {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(1), compiler.Options{
		Mode: compiler.Mode(kind.CompilerMode()),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Linked
}

func TestOutageFreeRunCompletes(t *testing.T) {
	l := compiled(t, "sha", arch.SweepEmptyBit)
	s := arch.New(arch.SweepEmptyBit, config.Default())
	res, err := Run(l, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || res.Outages != 0 || res.ChargeNs != 0 {
		t.Errorf("halted=%v outages=%d charge=%d", res.Halted, res.Outages, res.ChargeNs)
	}
	if res.TimeNs != res.RunNs {
		t.Error("outage-free wall-clock must equal run time")
	}
	if res.Counts.Executed == 0 || res.Ledger.Total() <= 0 {
		t.Error("empty counters")
	}
	if res.Arch.RegionsExecuted == 0 || res.RegionSizes.N == 0 {
		t.Error("region stats missing")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		l := compiled(t, "adpcmenc", arch.SweepEmptyBit)
		s := arch.New(arch.SweepEmptyBit, config.Default())
		res, err := Run(l, s, Options{Source: trace.New(trace.RFOffice, 9)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.TimeNs != b.TimeNs || a.Outages != b.Outages || a.Counts.Executed != b.Counts.Executed {
		t.Errorf("nondeterminism: %d/%d vs %d/%d", a.TimeNs, a.Outages, b.TimeNs, b.Outages)
	}
}

func TestInstructionBudget(t *testing.T) {
	l := compiled(t, "sha", arch.NVP)
	s := arch.New(arch.NVP, config.Default())
	_, err := Run(l, s, Options{MaxInstructions: 100})
	if err == nil {
		t.Fatal("budget not enforced")
	}
}

func TestStagnationDetected(t *testing.T) {
	l := compiled(t, "sha", arch.NVP)
	s := arch.New(arch.NVP, config.Default())
	// A source too weak to ever recharge.
	_, err := Run(l, s, Options{
		Source:       &trace.Constant{P: 1e-9, Label: "dead"},
		StagnationNs: 1e9,
	})
	if !errors.Is(err, ErrStagnation) {
		t.Fatalf("err = %v", err)
	}
}

func TestJITSchemeBacksUpOnOutage(t *testing.T) {
	l := compiled(t, "adpcmenc", arch.NVSRAM)
	s := arch.New(arch.NVSRAM, config.Default())
	res, err := Run(l, s, Options{Source: trace.New(trace.RFOffice, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("no outages")
	}
	if res.Arch.BackupEvents != res.Outages || res.Arch.RestoreEvents != res.Outages {
		t.Errorf("backup=%d restore=%d outages=%d",
			res.Arch.BackupEvents, res.Arch.RestoreEvents, res.Outages)
	}
	if res.ChargeNs == 0 || res.TimeNs <= res.RunNs {
		t.Error("charging time unaccounted")
	}
}

func TestSweepNeverBacksUp(t *testing.T) {
	l := compiled(t, "adpcmenc", arch.SweepEmptyBit)
	s := arch.New(arch.SweepEmptyBit, config.Default())
	res, err := Run(l, s, Options{Source: trace.New(trace.RFOffice, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages == 0 {
		t.Fatal("no outages")
	}
	if res.Arch.BackupEvents != 0 {
		t.Error("SweepCache performed a JIT backup")
	}
	if res.Ledger.Backup != 0 {
		t.Error("SweepCache consumed backup energy")
	}
}

func TestNvMRTakesStructuralBackups(t *testing.T) {
	p := config.Default()
	p.NvMRRenameCap = 2 // force frequent rename-table pressure
	p.CacheSize = 512   // heavy eviction -> speculative writebacks rename
	l := compiled(t, "dijkstra", arch.NvMR)
	s := arch.New(arch.NvMR, p)
	res, err := Run(l, s, Options{Source: trace.New(trace.RFOffice, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arch.BackupEvents <= res.Outages {
		t.Errorf("backups (%d) should exceed outages (%d) with a tiny rename table",
			res.Arch.BackupEvents, res.Outages)
	}
}

// TestEnergyConservation: every joule drawn from the capacitor appears in
// the ledger; total ledger energy is positive and dominated by categories
// the scheme actually exercises.
func TestEnergyLedgerSanity(t *testing.T) {
	l := compiled(t, "sha", arch.SweepEmptyBit)
	s := arch.New(arch.SweepEmptyBit, config.Default())
	res, err := Run(l, s, Options{Source: trace.New(trace.RFOffice, 5)})
	if err != nil {
		t.Fatal(err)
	}
	led := res.Ledger
	if led.Compute <= 0 || led.Persist <= 0 || led.Sleep <= 0 {
		t.Errorf("ledger: %+v", led)
	}
	if led.Backup != 0 {
		t.Error("sweep backup energy")
	}
}

func TestParallelismEfficiencyBounds(t *testing.T) {
	l := compiled(t, "gsmenc", arch.SweepEmptyBit)
	s := arch.New(arch.SweepEmptyBit, config.Default())
	res, err := Run(l, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eff := res.ParallelismEfficiency()
	if eff < 0 || eff > 1 {
		t.Errorf("efficiency = %f", eff)
	}
	if res.Arch.TpNs == 0 {
		t.Error("no persistence latency recorded")
	}
}

func TestInitNVMLoadsImage(t *testing.T) {
	l := compiled(t, "sha", arch.NVP)
	s := arch.New(arch.NVP, config.Default())
	InitNVM(s, l)
	if s.NVM().PeekWord(ir.PCSlotAddr) != int64(l.EntryPC) {
		t.Error("PC slot not initialized")
	}
	want := map[int64]byte{} // the linked image, later runs winning
	for _, run := range l.Image {
		for i, b := range run.Data {
			want[run.Addr+int64(i)] = b
		}
	}
	if len(want) <= 8 {
		t.Fatalf("image holds %d bytes: no data", len(want))
	}
	for addr, b := range want {
		if got := byte(s.NVM().PeekWord(addr)); got != b {
			t.Fatalf("NVM[%#x] = %#x, image has %#x", addr, got, b)
		}
	}
}

// TestRunRejectsDataPastNVM: a program whose data does not fit the NVM
// is refused with an error before boot, on every kind, outage-free and
// under a power trace, instead of panicking when its image is loaded.
func TestRunRejectsDataPastNVM(t *testing.T) {
	p := config.Default()
	p.NVMSize = 4096
	for _, k := range arch.AllKinds() {
		l := compiled(t, "sha", k)
		for _, src := range []trace.Source{nil, trace.New(trace.RFOffice, 1)} {
			res, err := Run(l, arch.New(k, p), Options{Source: src})
			if res != nil || err == nil || !strings.Contains(err.Error(), "4096 B NVM") {
				t.Errorf("%s, source %v: result %v, err %v; want an NVM size error", k, src, res, err)
			}
		}
	}
}

// TestMetricsSnapshotDoesNotAlias pins that a Metrics snapshot deep-copies
// the result's histograms: mutating the result afterwards leaves the
// snapshot untouched.
func TestMetricsSnapshotDoesNotAlias(t *testing.T) {
	l := compiled(t, "sha", arch.SweepEmptyBit)
	res, err := Run(l, arch.New(arch.SweepEmptyBit, config.Default()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics()
	sizes, stores := snap.Hists["region.sizes"], snap.Hists["region.stores"]
	if sizes == nil || stores == nil || sizes.N != res.RegionSizes.N || stores.N != res.Arch.StoresPerRegion.N {
		t.Fatalf("snapshot histograms missing or wrong: sizes=%v stores=%v", sizes, stores)
	}
	wantSizes, wantStores := sizes.N, stores.N
	wantBucket := sizes.Buckets[1]

	res.RegionSizes.Add(1)
	res.Arch.StoresPerRegion.Add(1)
	if sizes.N != wantSizes || stores.N != wantStores || sizes.Buckets[1] != wantBucket {
		t.Fatal("Metrics snapshot aliases the result's histograms")
	}
	if snap.Counters["arch.regions"] != res.Arch.RegionsExecuted || snap.Counters["sim.runs"] != 1 {
		t.Fatalf("counters wrong: %v", snap.Counters)
	}
}
