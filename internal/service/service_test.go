package service_test

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// startService boots a Service over path with an httptest server and a
// client pointed at it.
func startService(t *testing.T, path string) (*service.Service, *httptest.Server, *service.Client) {
	t.Helper()
	svc, err := service.New(service.Config{
		StorePath: path,
		Tracker:   obs.NewCampaignTracker(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler(obs.NewRunInfo("sweepd-test", sim.EngineVersion)))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := service.NewClient(ts.URL)
	return svc, ts, cl
}

// directDigest runs the cell directly on the engine — no store, no
// service — and returns the digest its durable record would carry. This
// is the ground truth every served tier must match.
func directDigest(t *testing.T) string {
	t.Helper()
	w, err := workloads.ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *ir.Program { return w.Build(1) }
	res, err := core.Run(build, arch.SweepEmptyBit, config.Default(), trace.New(trace.RFHome, 1))
	if err != nil {
		t.Fatal(err)
	}
	return journal.FromResult(res).Digest()
}

var testReq = service.CellRequest{
	Workload: "sha", Scheme: "Sweep-EmptyBit", Profile: "RFHome", Seed: 1,
}

// TestServiceEndToEnd is the acceptance path of simulation-as-a-service:
//
//  1. two concurrent identical requests cost exactly one simulation
//     (singleflight dedup or, if the first finishes before the second
//     arrives, a memory hit — either way Misses stays 1);
//  2. a repeated request is served from the memory tier;
//  3. a cold restart (new service over the same journal) serves the
//     cell from the disk tier;
//  4. every response — simulated, memory, disk — carries the same
//     record digest as a direct engine run of the same cell.
func TestServiceEndToEnd(t *testing.T) {
	want := directDigest(t)
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	svc, _, cl := startService(t, path)

	// Phase 1: concurrent identical requests.
	var wg sync.WaitGroup
	start := make(chan struct{})
	resps := make([]*service.CellResponse, 2)
	errs := make([]error, 2)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = cl.Cell(context.Background(), testReq)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent request %d: %v", i, err)
		}
		if resps[i].Digest != want {
			t.Fatalf("concurrent request %d digest %.16s…, want direct-run %.16s…", i, resps[i].Digest, want)
		}
	}
	st := svc.Store().Stats()
	if st.Misses != 1 {
		t.Fatalf("two concurrent identical requests ran %d simulations, want 1 (stats %+v)", st.Misses, st)
	}
	if got := st.DedupCollapses + st.MemHits; got != 1 {
		t.Fatalf("second request unaccounted: dedup %d + mem %d = %d, want 1", st.DedupCollapses, st.MemHits, got)
	}
	t.Logf("concurrent pair: dedup=%d mem=%d", st.DedupCollapses, st.MemHits)

	// Phase 2: repeat — memory tier.
	r3, err := cl.Cell(context.Background(), testReq)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Tier != "memory" {
		t.Fatalf("repeat served from %q, want memory", r3.Tier)
	}
	if r3.Digest != want {
		t.Fatalf("memory tier digest %.16s…, want %.16s…", r3.Digest, want)
	}

	// Phase 3: cold restart over the same journal.
	svc.Close()
	_, _, cl2 := startService(t, path)
	r4, err := cl2.Cell(context.Background(), testReq)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Tier != "disk" {
		t.Fatalf("post-restart request served from %q, want disk", r4.Tier)
	}
	if r4.Digest != want {
		t.Fatalf("disk tier digest %.16s…, want %.16s…", r4.Digest, want)
	}
	if r4.Key != resps[0].Key {
		t.Fatalf("cell key drifted across restart: %s vs %s", r4.Key, resps[0].Key)
	}
}

// TestServiceValidation: requests naming things that don't exist, or
// params no machine can be built from, are 400s, not simulations or
// 500s. A 3 KiB 2-way cache has 24 sets, which the cache model cannot
// build; NVSRAM shows it, where NVP's params would reset the geometry.
func TestServiceValidation(t *testing.T) {
	svc, _, cl := startService(t, "")
	for name, req := range map[string]service.CellRequest{
		"unknown workload": {Workload: "nope", Scheme: "NVP"},
		"unknown scheme":   {Workload: "sha", Scheme: "nope"},
		"unknown profile":  {Workload: "sha", Scheme: "NVP", Profile: "nope"},
		"missing workload": {Scheme: "NVP"},
		"bad params":       {Workload: "sha", Scheme: "NVP", Params: []byte(`{"NoSuchKnob":1}`)},
		"invalid params":   {Workload: "sha", Scheme: "NVP", Params: []byte(`{"Vmax":-1}`)},
		"oversized cache":  {Workload: "sha", Scheme: "NVSRAM", Params: []byte(`{"CacheSize":1073741824}`)},
		"oversized buffer": {Workload: "sha", Scheme: "Sweep-EmptyBit", Params: []byte(`{"StoreThreshold":1073741824}`)},
		"24 cache sets":    {Workload: "sha", Scheme: "NVSRAM", Profile: "RFOffice", Params: []byte(`{"CacheSize":3072}`)},
		"scale past NVM":   {Workload: "jpegdec", Scheme: "NVP", Scale: workloads.MaxScale + 1},
		"huge scale":       {Workload: "sha", Scheme: "NVP", Scale: 1 << 40},
	} {
		if _, err := cl.Cell(context.Background(), req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: err = %v, want a 400", name, err)
		}
	}
	if st := svc.Store().Stats(); st.Misses != 0 {
		t.Errorf("store.misses %d, want 0: a rejected request reached a simulation", st.Misses)
	}
}

// TestServiceParamsKeys: the request docs/SERVICE.md shows, with Table 2's
// 100 nF capacitor, is accepted and keyed apart from the Table 1 cell. A
// params field, even an empty one, is fingerprinted as sent: {} keys
// exactly as no params does, and a -0 that == would take for Table 1's
// 0 keys apart from it.
func TestServiceParamsKeys(t *testing.T) {
	_, ts, cl := startService(t, "")
	ctx := context.Background()
	def, err := cl.Cell(ctx, testReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(
		`{"workload":"sha","scheme":"Sweep-EmptyBit","profile":"RFHome","seed":1,"scale":1,"params":{"CapacitorF":100e-9}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var small service.CellResponse
	if err := json.NewDecoder(resp.Body).Decode(&small); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("documented request: status %d, decode err %v", resp.StatusCode, err)
	}
	if small.Key == def.Key || small.Cell.ParamsFP == def.Cell.ParamsFP {
		t.Fatalf("a 100 nF request shares the Table 1 cell's key %s", def.Key)
	}
	empty := testReq
	empty.Params = json.RawMessage(`{}`)
	got, err := cl.Cell(ctx, empty)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != def.Key || got.Tier != "memory" {
		t.Fatalf(`"params": {} keyed %s (tier %s), want the Table 1 cell's %s from memory`, got.Key, got.Tier, def.Key)
	}
	negZero := testReq
	negZero.Params = json.RawMessage(`{"SweepVmin": -0}`)
	if got, err = cl.Cell(ctx, negZero); err != nil {
		t.Fatal(err)
	}
	if got.Key == def.Key {
		t.Fatalf(`"params": {"SweepVmin": -0} shares the Table 1 cell's key %s`, def.Key)
	}
}

// TestServiceBatchAndStats: a mixed batch reports per-item outcomes in
// order, and /v1/stats exposes the tier counters.
func TestServiceBatchAndStats(t *testing.T) {
	_, _, cl := startService(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	items, err := cl.Cells(context.Background(), []service.CellRequest{
		testReq,
		{Workload: "nope", Scheme: "NVP"},
		testReq, // duplicate: hit or collapse, never a second simulation
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	if items[0].Response == nil || items[0].Error != "" {
		t.Fatalf("item 0: %+v", items[0])
	}
	if items[1].Response != nil || !strings.Contains(items[1].Error, "nope") {
		t.Fatalf("item 1 should fail validation: %+v", items[1])
	}
	if items[2].Response == nil || items[2].Response.Digest != items[0].Response.Digest {
		t.Fatalf("duplicate batch item digests differ: %+v vs %+v", items[2], items[0])
	}

	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Misses != 1 {
		t.Fatalf("batch ran %d simulations for one distinct valid cell, want 1", st.Store.Misses)
	}
	if st.Counters["service.requests"] == 0 || st.Counters["service.bad_requests"] != 1 {
		t.Fatalf("service counters: %+v", st.Counters)
	}
}

// TestLoadGenerator runs the mixed hit/miss/concurrent scenario the CI
// smoke uses, in-process: concurrent identical and distinct requests,
// every digest agreeing, simulations bounded by the distinct cell count.
func TestLoadGenerator(t *testing.T) {
	svc, _, cl := startService(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	cells := []service.CellRequest{
		{Workload: "sha", Scheme: "Sweep-EmptyBit", Profile: "RFHome", Seed: 1},
		{Workload: "sha", Scheme: "NVP", Profile: "RFHome", Seed: 1},
		{Workload: "adpcmenc", Scheme: "Sweep-EmptyBit", Seed: 1},
	}
	rep, err := service.RunLoad(context.Background(), cl, service.LoadSpec{
		Clients: 6, Repeat: 3, Cells: cells,
	})
	if err != nil {
		t.Fatalf("load scenario failed: %v (report %+v)", err, rep)
	}
	wantReqs := 6 * 3 * len(cells)
	if rep.Requests != wantReqs || rep.Failures != 0 {
		t.Fatalf("report: %+v, want %d requests 0 failures", rep, wantReqs)
	}
	if len(rep.Digests) != len(cells) {
		t.Fatalf("%d distinct keys, want %d", len(rep.Digests), len(cells))
	}
	st := svc.Store().Stats()
	if st.Misses != uint64(len(cells)) {
		t.Fatalf("%d simulations for %d distinct cells under load", st.Misses, len(cells))
	}
	if st.Errors != 0 {
		t.Fatalf("%d compute errors under load", st.Errors)
	}
}

// TestServiceMetricsEndpoint: the store counters ride the Prometheus
// scrape.
func TestServiceMetricsEndpoint(t *testing.T) {
	_, ts, cl := startService(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	if _, err := cl.Cell(context.Background(), testReq); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cell(context.Background(), testReq); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"store_mem_hits 1", "store_misses 1", "service_requests 2"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// scrapeMetrics reads /metrics into each sample's value by name and the
// number of times each name appears.
func scrapeMetrics(t *testing.T, ts *httptest.Server) (vals map[string]string, seen map[string]int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	vals, seen = map[string]string{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, v, _ := strings.Cut(line, " ")
		vals[name] = v
		seen[name]++
	}
	return vals, seen
}

// TestMetricsOneHomePerCounter pins where each served counter lives. The
// store's and the service's counters are rendered from their owners'
// stats on every scrape, zeros included, so /metrics, /v1/stats and
// store.Stats() agree; the journal's load count appears once, under one
// name.
func TestMetricsOneHomePerCounter(t *testing.T) {
	storeNames := []string{"store_mem_hits", "store_disk_hits", "store_misses", "store_dedup_collapses", "store_errors"}
	storeCounts := func(st store.Stats) []uint64 {
		return []uint64{st.MemHits, st.DiskHits, st.Misses, st.DedupCollapses, st.Errors}
	}
	serviceNames := []string{"service_requests", "service_bad_requests", "service_failures", "service_leases", "service_cells_quarantined"}
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	svc, ts, cl := startService(t, path)

	// A fresh daemon shows every counter at 0 from the first scrape.
	vals, _ := scrapeMetrics(t, ts)
	for _, name := range append(append(storeNames, serviceNames...), "journal_cells_loaded", "journal_lines_corrupt") {
		if vals[name] != "0" {
			t.Errorf("fresh /metrics: %s = %q, want 0", name, vals[name])
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	zeros := map[string]uint64{"service.requests": 0, "service.bad_requests": 0, "service.failures": 0,
		"service.leases": 0, "service.cells_quarantined": 0}
	if !maps.Equal(st.Counters, zeros) {
		t.Errorf("fresh /v1/stats counters = %v, want the five service counters at 0", st.Counters)
	}

	// Two misses, a memory hit and a bad request.
	cells := []service.CellRequest{{Workload: "sha", Scheme: "NVP"}, {Workload: "sha", Scheme: "Sweep-EmptyBit"}}
	for _, req := range append(cells, cells[0]) {
		if _, err := cl.Cell(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Cell(ctx, service.CellRequest{Workload: "nope", Scheme: "NVP"}); err == nil {
		t.Fatal("unknown workload served")
	}
	vals, _ = scrapeMetrics(t, ts)
	if st, err = cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	own := svc.Store().Stats()
	if own.Misses != 2 || own.MemHits != 1 {
		t.Fatalf("store stats %+v, want 2 misses and 1 memory hit", own)
	}
	for i, name := range storeNames {
		want := storeCounts(own)[i]
		if vals[name] != strconv.FormatUint(want, 10) || storeCounts(st.Store)[i] != want {
			t.Errorf("%s: /metrics %s, /v1/stats %d, store.Stats() %d", name, vals[name], storeCounts(st.Store)[i], want)
		}
	}
	if vals["service_requests"] != "4" || vals["service_bad_requests"] != "1" ||
		st.Counters["service.requests"] != 4 || st.Counters["service.bad_requests"] != 1 || len(st.Counters) != 5 {
		t.Errorf("service counters: /metrics requests %s bad %s, /v1/stats %v",
			vals["service_requests"], vals["service_bad_requests"], st.Counters)
	}

	// A restart over the journal shows its load count once, and under
	// one name.
	svc.Close()
	_, ts2, _ := startService(t, path)
	vals, seen := scrapeMetrics(t, ts2)
	if vals["journal_cells_loaded"] != "2" || seen["journal_cells_loaded"] != 1 ||
		vals["journal_lines_corrupt"] != "0" || seen["journal_lines_corrupt"] != 1 {
		t.Errorf("restart: journal_cells_loaded %q ×%d, journal_lines_corrupt %q ×%d; want 2 ×1, 0 ×1",
			vals["journal_cells_loaded"], seen["journal_cells_loaded"],
			vals["journal_lines_corrupt"], seen["journal_lines_corrupt"])
	}
	if seen["store_disk_loaded"] != 0 {
		t.Errorf("restart: store_disk_loaded still rendered")
	}
}
