package exp

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
	for _, k := range arch.EvalKinds() {
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

// TestContextSimulatesEachCellOnce: figures sharing one Context share its
// store, so a cell an earlier figure ran is served from memory, a cell
// whose scheme never reads what its figure changed is served from the
// equivalent an earlier matrix ran (the same cell under params its kind
// reads the same), and a harvested cell whose outage-free twin an earlier
// matrix ran is served from it when the twin's ledger fits the cell's
// sim.QuietBudget; every other cell is simulated once. The printed tables
// are exactly what fresh contexts print, and a scraper reads the metrics
// throughout, as /metrics does. Over the 8 quick workloads:
//   - Figs 5 and 7 run 5 kinds each, outage-free and under RFOffice;
//     Parallelism reads their NVP and Sweep-EmptyBit cells: 80 runs and
//     32 memory hits. At 470 nF no cell is quiet: no twin serves.
//   - Figs 9, 11 and 8 all run under RFOffice. Per workload, Fig 9 runs
//     a 100 nF NVP baseline and 6 capacitors × 4 kinds: 24 runs; its
//     100 nF NVP cell repeats the baseline (1 memory hit). Fig 11a raises
//     SweepRestoreDelayNs, which only SweepCache reads: the baseline and
//     the 18 NVP, ReplayCache and NVSRAM cells are Fig 9's (1 memory
//     hit, 18 served), and SweepCache runs 6. Fig 11b changes the JIT
//     delays, which SweepCache never reads: its 6 SweepCache cells are
//     Fig 9's (6 served); the baseline and the 18 JIT cells run (1
//     memory hit, 18 runs). Fig 8 sweeps the cache at 470 nF: the 4 kB
//     column is Fig 9's 470 nF one (4 memory hits); at the other 5 sizes
//     NVP is served from it (5) and the 3 cached kinds run (15). That is
//     63 runs, 7 memory hits and 29 served cells per workload. No
//     outage-free matrix runs, so no twin serves.
//   - Fig 5 then Figs 9 and 11 are the case above without Fig 8 (per
//     workload 48 runs, 3 memory hits and 24 served), after an
//     outage-free matrix of NVP and the four Fig 5 kinds. Its cells are
//     the twins of the capacitor sweeps' NVP, ReplayCache, NVSRAM and
//     Sweep-EmptyBit cells, and they serve 180 of them: the quiet ones,
//     at the large capacitors. That leaves 424 - 180 = 244 runs.
//
// Each served record must be what simulating the cell under its own
// params and supply returns.
func TestContextSimulatesEachCellOnce(t *testing.T) {
	var fig9 *CapacitorSweepResult
	var fig8 *CacheSweepResult
	for _, tc := range []struct {
		name                         string
		figs                         []func(*Context) error
		sets                         func(*Context) []matrixSet // what the figures' matrices ran, in order
		runs, memHits, served, twins uint64
	}{
		{"fig5-fig7-par", []func(*Context) error{
			func(c *Context) error { _, err := c.Fig5(); return err },
			func(c *Context) error { _, err := c.Fig7(); return err },
			func(c *Context) error { _, err := c.Parallelism(); return err },
		}, nil, 80, 32, 0, 0},
		{"fig9-fig11-fig8", []func(*Context) error{
			func(c *Context) (err error) { fig9, err = c.Fig9(); return err },
			func(c *Context) error { _, err := c.Fig11(); return err },
			func(c *Context) (err error) { fig8, err = c.Fig8(); return err },
		}, func(c *Context) []matrixSet {
			return append(capSweepSets(c, fig9.Caps), cacheSweepSets(c, fig8.Sizes)...)
		}, 504, 56, 232, 0},
		{"fig5-fig9-fig11", []func(*Context) error{
			func(c *Context) error { _, err := c.Fig5(); return err },
			func(c *Context) (err error) { fig9, err = c.Fig9(); return err },
			func(c *Context) error { _, err := c.Fig11(); return err },
		}, func(c *Context) []matrixSet {
			return append([]matrixSet{{nil, c.Params}}, capSweepSets(c, fig9.Caps)...)
		}, 244, 24, 192, 180},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shared := quickCtx()
			var got, want strings.Builder
			shared.Out = &got
			shared.Metrics = telemetry.NewSnapshot()
			stop, scraped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
						shared.MetricsSnapshot()
					}
				}
			}()
			defer func() { close(stop); <-scraped }()
			for _, fig := range tc.figs {
				if err := fig(shared); err != nil {
					t.Fatal(err)
				}
				fresh := quickCtx()
				fresh.Out = &want
				if err := fig(fresh); err != nil {
					t.Fatal(err)
				}
			}
			if got.String() != want.String() {
				t.Errorf("shared context printed\n%s\nfresh contexts printed\n%s", got.String(), want.String())
			}
			c := shared.MetricsSnapshot().Counters
			runs, hits, served, twins := c["sim.runs"], c["store.mem_hits"], c["exp.equivalent_hits"], c["exp.twin_hits"]
			if runs != tc.runs || hits != tc.memHits || served != tc.served || twins != tc.twins {
				t.Errorf("sim.runs %d, store.mem_hits %d, exp.equivalent_hits %d, exp.twin_hits %d; want %d, %d, %d and %d",
					runs, hits, served, twins, tc.runs, tc.memHits, tc.served, tc.twins)
			}
			if tc.sets != nil {
				checkServedRecords(t, shared, tc.sets(shared), served, twins)
			}
		})
	}
}

// TestMatrixMetricsFoldInJobOrder: a matrix folds its simulated runs'
// metrics in job order when it ends, so the float gauges are one sum
// whichever cell finished first: bit for bit the fold of m.Results in
// workload, kind and seed order.
func TestMatrixMetricsFoldInJobOrder(t *testing.T) {
	c := quickCtx()
	c.Metrics = telemetry.NewSnapshot()
	pr := trace.RFOffice
	const seeds = 2
	m, err := c.runMatrix(arch.AllKinds(), &pr, c.Params, seeds)
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry.NewSnapshot()
	for _, name := range m.Names {
		for _, k := range withNVP(m.Kinds) {
			for _, r := range m.Results[cell{name, k}] {
				if err := want.Merge(r.Metrics()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if runs, jobs := c.Metrics.Counters["sim.runs"], uint64(len(m.Names)*len(m.Kinds)*seeds); runs != jobs {
		t.Fatalf("sim.runs %d, want every one of the %d jobs simulated", runs, jobs)
	}
	if len(c.Metrics.Gauges) != len(want.Gauges) {
		t.Fatalf("%d gauges, want %d", len(c.Metrics.Gauges), len(want.Gauges))
	}
	for name, w := range want.Gauges {
		if g := c.Metrics.Gauges[name]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("gauge %s = %v, want the job-order fold %v", name, g, w)
		}
	}
}

// matrixSet is the supply (nil = outage-free) and params of one matrix.
type matrixSet struct {
	profile *trace.Profile
	p       config.Params
}

// capSweepSets lists the matrices of Fig 9 and Fig 11 over caps in the
// order they ran: each sweep's 100 nF baseline is its first capacitor's
// set.
func capSweepSets(c *Context, caps []float64) []matrixSet {
	pa, pb := c.Params, c.Params
	pa.SweepRestoreDelayNs = 10300
	pb.BackupDelayNs, pb.RestoreDelayNs = 500, 3000
	pr := trace.RFOffice
	var sets []matrixSet
	for _, p0 := range []config.Params{c.Params, pa, pb} {
		for _, cf := range caps {
			p := p0
			p.CapacitorF = cf
			sets = append(sets, matrixSet{&pr, p})
		}
	}
	return sets
}

// cacheSweepSets lists the matrices of Fig 8 over sizes in the order
// they ran.
func cacheSweepSets(c *Context, sizes []int) []matrixSet {
	pr := trace.RFOffice
	var sets []matrixSet
	for _, sz := range sizes {
		p := c.Params
		p.CacheSize = sz
		sets = append(sets, matrixSet{&pr, p})
	}
	return sets
}

// checkServedRecords finds every cell of c's matrices, sets in the order
// they ran, that c served from an equivalent or from an outage-free twin
// rather than simulating. It re-simulates each under the cell's own raw
// params and supply, and requires the served record to carry that
// simulation's digest and NVM hash. The cells it checks must be as many
// as the context reports serving, of each kind.
func checkServedRecords(t *testing.T, c *Context, sets []matrixSet, served, twins uint64) {
	t.Helper()
	type class struct {
		workload string
		key      equivKey
	}
	firstFP := map[class]string{}
	seen := map[[2]string]bool{}
	var checkedEquiv, checkedTwins uint64
	for _, set := range sets {
		fp := set.p.Fingerprint()
		id := [2]string{profileName(set.profile), fp}
		if seen[id] {
			continue // a repeated matrix is served from memory
		}
		seen[id] = true
		for _, w := range c.Workloads() {
			for _, k := range arch.AllKinds() {
				rec, ok := c.store().Peek(c.CellID(w.Name, k, set.profile, c.Seed, fp))
				if !ok {
					continue
				}
				cl := class{w.Name, newEquivKey(k, set.profile, set.p)}
				first, ok := firstFP[cl]
				switch {
				case ok && first != fp:
					checkedEquiv++
				case set.profile == nil:
					firstFP[cl] = fp
					continue
				default:
					firstFP[cl] = fp
					twinFP, ok := firstFP[class{w.Name, newEquivKey(k, nil, set.p)}]
					if !ok {
						continue
					}
					twin, ok := c.store().Peek(c.CellID(w.Name, k, nil, c.Seed, twinFP))
					if !ok || twin.Result.Ledger.Total() > sim.QuietBudget(arch.New(k, set.p)) {
						continue
					}
					checkedTwins++
				}
				var src trace.Source
				if set.profile != nil {
					src = trace.New(*set.profile, c.Seed)
				}
				cres, err := core.SharedCompileCache().Get(core.KeyFor(w.Name, c.Scale, k, set.p), c.builder(w), k, set.p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := core.RunCompiled(cres, k, set.p, src, nil)
				if err != nil {
					t.Fatal(err)
				}
				if simulated := journal.FromResult(res); simulated.Digest() != rec.Digest() || simulated.NVMHash != rec.NVMHash {
					t.Errorf("%s on %v, %s, params %.8s: served record differs from a simulation", w.Name, k, profileName(set.profile), fp)
				}
			}
		}
	}
	if checkedEquiv != served || checkedTwins != twins {
		t.Errorf("checked %d cells served from equivalents and %d from twins; the context served %d and %d",
			checkedEquiv, checkedTwins, served, twins)
	}
}
