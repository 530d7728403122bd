package exp

import (
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/trace"
)

// quick returns a reduced-workload context for test speed.
func quickCtx() *Context {
	c := DefaultContext()
	c.Quick = true
	return c
}

// TestFig5Shape asserts the paper's headline outage-free ordering on the
// quick subset: NVSRAM > Sweep > Replay, and Empty-Bit >= NVM Search.
func TestFig5Shape(t *testing.T) {
	r, err := quickCtx().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	g := r.GeoAll
	if !(g[arch.NVSRAM] > g[arch.SweepEmptyBit]) {
		t.Errorf("NVSRAM (%.2f) must beat Sweep (%.2f) outage-free", g[arch.NVSRAM], g[arch.SweepEmptyBit])
	}
	if !(g[arch.SweepEmptyBit] > g[arch.ReplayCache]) {
		t.Errorf("Sweep (%.2f) must beat Replay (%.2f)", g[arch.SweepEmptyBit], g[arch.ReplayCache])
	}
	if g[arch.SweepEmptyBit] < g[arch.SweepNVMSearch]*0.99 {
		t.Errorf("Empty-Bit (%.2f) slower than NVM Search (%.2f)", g[arch.SweepEmptyBit], g[arch.SweepNVMSearch])
	}
	// Every speedup over the cache-free NVP must exceed 1.
	for _, k := range evalKinds {
		if g[k] < 1.5 {
			t.Errorf("%v geomean %.2f — caching should clearly beat NVP", k, g[k])
		}
	}
}

// TestFig7Shape asserts the with-outage inversion: SweepCache overtakes
// NVSRAM under the RFOffice trace.
func TestFig7Shape(t *testing.T) {
	r, err := quickCtx().Fig7()
	if err != nil {
		t.Fatal(err)
	}
	g := r.GeoAll
	if !(g[arch.SweepEmptyBit] > g[arch.NVSRAM]) {
		t.Errorf("with outages Sweep (%.2f) must beat NVSRAM (%.2f)", g[arch.SweepEmptyBit], g[arch.NVSRAM])
	}
	if !(g[arch.NVSRAM] > g[arch.ReplayCache]) {
		t.Errorf("with outages NVSRAM (%.2f) must beat Replay (%.2f)", g[arch.NVSRAM], g[arch.ReplayCache])
	}
}

// TestFig8GrowsWithCache pins EXPERIMENTS.md's Figure 8 row: under
// RFOffice, SweepCache's geomean speedup over NVP rises strictly with
// every cache size step. On the quick set it climbs 4.92, 6.09, 8.79,
// 12.86, 13.42, 13.63 from 512 B to 16 kB.
func TestFig8GrowsWithCache(t *testing.T) {
	r, err := quickCtx().Fig8()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Sizes); i++ {
		lo, hi := r.Sizes[i-1], r.Sizes[i]
		if a, b := r.Speedup[lo][arch.SweepEmptyBit], r.Speedup[hi][arch.SweepEmptyBit]; !(b > a) {
			t.Errorf("Sweep at %s (%.2f) must beat Sweep at %s (%.2f)", sizeLabel(hi), b, sizeLabel(lo), a)
		}
	}
}

// TestFig10SweepBestOnEveryTrace pins EXPERIMENTS.md's Figure 10 row:
// SweepCache has the highest geomean speedup over NVP under each of the
// four power traces. On the quick set the nearest rival is NVSRAM
// everywhere (12.86 vs 7.83 on RFOffice, 20.26 vs 11.07 on RFHome, 14.02
// vs 8.88 on solar, 15.56 vs 9.82 on thermal).
func TestFig10SweepBestOnEveryTrace(t *testing.T) {
	r, err := quickCtx().Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedup) != len(trace.Profiles()) {
		t.Fatalf("%d traces, want %d", len(r.Speedup), len(trace.Profiles()))
	}
	for pr, g := range r.Speedup {
		for _, k := range fig10Kinds {
			if k != arch.SweepEmptyBit && !(g[arch.SweepEmptyBit] > g[k]) {
				t.Errorf("%s: Sweep (%.2f) must beat %v (%.2f)", pr, g[arch.SweepEmptyBit], k, g[k])
			}
		}
	}
}

// TestTable2Outages pins EXPERIMENTS.md's Table 2 rows on the quick set:
// at 100 nF and at 470 nF the average outage count orders NVP >
// ReplayCache > NVSRAM > Sweep, and from 100 µF up no scheme loses power.
// Every ordering holds on the quick set; the narrowest margin is
// ReplayCache over NVSRAM at 100 nF (64.0 vs 62.8 outages).
func TestTable2Outages(t *testing.T) {
	r, err := quickCtx().Fig9()
	if err != nil {
		t.Fatal(err)
	}
	order := []arch.Kind{arch.NVP, arch.ReplayCache, arch.NVSRAM, arch.SweepEmptyBit}
	for _, cf := range []float64{100e-9, 470e-9} {
		o := r.Outages[cf]
		for i := 1; i < len(order); i++ {
			if !(o[order[i-1]] > o[order[i]]) {
				t.Errorf("%s: %v averages %.1f outages, must exceed %v's %.1f",
					capLabel(cf), order[i-1], o[order[i-1]], order[i], o[order[i]])
			}
		}
	}
	for _, cf := range r.Caps {
		if cf < 100e-6 {
			continue
		}
		for _, k := range order {
			if n := r.Outages[cf][k]; n != 0 {
				t.Errorf("%s: %v averages %.1f outages, want 0", capLabel(cf), k, n)
			}
		}
	}
}

func TestParallelismEfficiencyHigh(t *testing.T) {
	r, err := quickCtx().Parallelism()
	if err != nil {
		t.Fatal(err)
	}
	if r.OutageFree < 0.75 || r.OutageFree > 1 {
		t.Errorf("outage-free efficiency %.2f out of plausible range", r.OutageFree)
	}
	if r.WithOutage < 0.75 || r.WithOutage > 1 {
		t.Errorf("with-outage efficiency %.2f out of plausible range", r.WithOutage)
	}
}

func TestFig12Distributions(t *testing.T) {
	r, err := quickCtx().Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanStores <= 0 || r.MeanStores > float64(DefaultContext().Params.StoreThreshold) {
		t.Errorf("mean stores/region %.2f outside (0, threshold]", r.MeanStores)
	}
	if r.MeanRegionSize <= r.MeanStores {
		t.Error("regions must contain more instructions than stores")
	}
	cdf := r.StoresPerRegion.CDF()
	if cdf[len(cdf)-1] < 0.99 {
		t.Error("stores/region CDF should reach ~1 within the threshold")
	}
}

func TestFig13EnergyBreakdown(t *testing.T) {
	r, err := quickCtx().Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// SweepCache performs no JIT backups and only trivial restores.
	if r.BackupPct[arch.SweepEmptyBit] != 0 {
		t.Error("SweepCache backup energy nonzero")
	}
	if r.RestorePct[arch.SweepEmptyBit] > 5 {
		t.Errorf("SweepCache restore share %.2f%% too large", r.RestorePct[arch.SweepEmptyBit])
	}
	// Every scheme consumes far less total energy than NVP.
	for _, k := range fig13Kinds {
		if r.TotalPct[k] >= 60 {
			t.Errorf("%v total energy %.1f%% of NVP — caching should slash it", k, r.TotalPct[k])
		}
	}
	// Figure 13's row in EXPERIMENTS.md: SweepCache's backup+restore
	// share of NVP's is far below both JIT designs' (0.16% vs 13.14% for
	// ReplayCache and 15.18% for NVSRAM on the quick set). The paper also
	// puts ReplayCache above NVSRAM, but that ordering flips on the quick
	// set, so it is not pinned here.
	share := func(k arch.Kind) float64 { return r.BackupPct[k] + r.RestorePct[k] }
	for _, k := range []arch.Kind{arch.ReplayCache, arch.NVSRAM} {
		if !(share(arch.SweepEmptyBit) < share(k)) {
			t.Errorf("Sweep backup+restore %.2f%% must be below %v's %.2f%%", share(arch.SweepEmptyBit), k, share(k))
		}
	}
}

func TestHWCost(t *testing.T) {
	r := quickCtx().HWCost()
	if r.Bits != 134 {
		t.Errorf("hardware cost %d bits, want the paper's 134", r.Bits)
	}
}

func TestICountOrdering(t *testing.T) {
	r, err := quickCtx().ICount()
	if err != nil {
		t.Fatal(err)
	}
	// SweepCache must execute more instructions than NVSRAM (checkpoint
	// stores + boundary code).
	if r.SweepOverNVSRAM <= 1 {
		t.Errorf("Sweep/NVSRAM instruction ratio %.3f <= 1", r.SweepOverNVSRAM)
	}
}

func TestTable1Prints(t *testing.T) {
	var sb strings.Builder
	c := quickCtx()
	c.Out = &sb
	c.Table1()
	out := sb.String()
	for _, want := range []string{"470nF", "3.5/2.8", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	c := quickCtx()
	pr := trace.RFOffice
	m, err := c.runMatrix([]arch.Kind{arch.SweepEmptyBit}, &pr, c.Params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Names) == 0 {
		t.Fatal("empty matrix")
	}
	n := m.Names[0]
	if m.Get(n, arch.NVP) == nil || m.Get(n, arch.SweepEmptyBit) == nil {
		t.Fatal("missing cells")
	}
	if s := m.Speedup(n, arch.SweepEmptyBit); s <= 0 {
		t.Errorf("speedup %f", s)
	}
	if g := m.GeomeanSpeedup(arch.SweepEmptyBit, nil); g <= 0 {
		t.Errorf("geomean %f", g)
	}
}

func TestWorkloadSubset(t *testing.T) {
	full := DefaultContext()
	if len(full.Workloads()) != 26 {
		t.Error("full context must use all workloads")
	}
	q := quickCtx()
	n := len(q.Workloads())
	if n == 0 || n >= 26 {
		t.Errorf("quick subset size %d", n)
	}
}

func TestVminGainPositive(t *testing.T) {
	r, err := quickCtx().Vmin()
	if err != nil {
		t.Fatal(err)
	}
	if r.Low <= r.Default {
		t.Errorf("lower Vmin must help: %.2f vs %.2f", r.Low, r.Default)
	}
}

func TestWTBetweenNVPAndNVSRAM(t *testing.T) {
	r, err := quickCtx().WT()
	if err != nil {
		t.Fatal(err)
	}
	if r.OutageFree <= 1 {
		t.Errorf("WT-VCache should beat the cache-free NVP: %.2f", r.OutageFree)
	}
	// Section 2.2: the per-store NVM write keeps WT well below the
	// write-back designs.
	fig5, err := quickCtx().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if r.OutageFree >= fig5.GeoAll[arch.NVSRAM] {
		t.Errorf("WT (%.2f) should not reach NVSRAM (%.2f)", r.OutageFree, fig5.GeoAll[arch.NVSRAM])
	}
}
