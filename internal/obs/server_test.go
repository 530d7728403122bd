package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// midCampaign builds a tracker frozen mid-run: one cell done, one
// running, one failed (a panic), one journal-skipped.
func midCampaign(clk *fakeClock) *CampaignTracker {
	tr := testTracker(clk)
	tr.BeginPhase("fig6")
	tr.AddCells([]CellMeta{
		{Workload: "sha", Scheme: "NVP", Profile: "rfhome"},
		{Workload: "fft", Scheme: "Sweep-EmptyBit", Profile: "rfhome"},
		{Workload: "crc", Scheme: "NVP", Profile: "rfhome"},
		{Workload: "dijkstra", Scheme: "Sweep-EmptyBit", Profile: "rfhome"},
	})
	tr.Skip(3)
	tr.Start(0, 0)
	clk.advance(20 * time.Millisecond)
	tr.Done(0, 0)
	tr.Start(0, 2)
	clk.advance(5 * time.Millisecond)
	tr.Fail(0, 2, errors.New("worker panic: index out of range"), true)
	tr.Start(1, 1) // left running at scrape time
	clk.advance(3 * time.Millisecond)
	return tr
}

func testServer(t *testing.T, tr *CampaignTracker, extra func() *telemetry.Snapshot) *httptest.Server {
	t.Helper()
	srv := &Server{
		Info:    NewRunInfo("sweeptest", "engine-test"),
		Tracker: tr,
		Extra:   extra,
	}
	srv.Info.Experiment = "fig6"
	srv.Info.Seed = 42
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerHealthz(t *testing.T) {
	ts := testServer(t, midCampaign(newFakeClock()), nil)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

func TestServerRunInfo(t *testing.T) {
	ts := testServer(t, midCampaign(newFakeClock()), nil)
	code, body := get(t, ts.URL+"/runinfo")
	if code != http.StatusOK {
		t.Fatalf("runinfo: %d", code)
	}
	var info RunInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("runinfo decode: %v\n%s", err, body)
	}
	if info.Binary != "sweeptest" || info.Engine != "engine-test" ||
		info.Experiment != "fig6" || info.Seed != 42 {
		t.Fatalf("runinfo fields: %+v", info)
	}
	if len(info.RunID) != 16 {
		t.Fatalf("run id %q, want 16 hex chars", info.RunID)
	}
	if info.GoVersion != runtime.Version() || info.GOMAXPROCS < 1 || info.PID <= 0 {
		t.Fatalf("process fields: %+v", info)
	}
}

// TestServerProgressMidCampaign pins the /progress document for a
// campaign caught mid-flight with one failed and one journal-skipped
// cell.
func TestServerProgressMidCampaign(t *testing.T) {
	ts := testServer(t, midCampaign(newFakeClock()), nil)
	code, body := get(t, ts.URL+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("progress decode: %v\n%s", err, body)
	}
	if p.Phase != "fig6" || p.Total != 4 ||
		p.Done != 1 || p.Running != 1 || p.Failed != 1 || p.Skipped != 1 || p.Pending != 0 {
		t.Fatalf("progress counts: %+v", p)
	}
	if p.Panics != 1 {
		t.Fatalf("panics = %d", p.Panics)
	}
	if !p.EtaKnown || p.EtaSec <= 0 {
		t.Fatalf("eta: known=%v sec=%g (one cell running, one done)", p.EtaKnown, p.EtaSec)
	}
	// JSON round-trips cell state as its text form.
	if !strings.Contains(body, `"state": "skipped"`) || !strings.Contains(body, `"state": "failed"`) {
		t.Fatalf("state strings missing from:\n%s", body)
	}
	if !strings.Contains(body, "worker panic: index out of range") {
		t.Fatalf("failed cell error missing from:\n%s", body)
	}
}

// TestServerMetricsMidCampaign checks /metrics renders the campaign
// gauges and the Extra simulation snapshot in Prometheus text form.
func TestServerMetricsMidCampaign(t *testing.T) {
	extra := func() *telemetry.Snapshot {
		s := telemetry.NewSnapshot()
		s.Counters["cache.hits"] = 12345
		s.Gauges["energy.compute_uj"] = 3.5
		h := stats.NewHist(64)
		h.Add(3)
		h.Add(7)
		s.Hists["region.insts"] = h
		return s
	}
	ts := testServer(t, midCampaign(newFakeClock()), extra)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE campaign_cells_done counter\ncampaign_cells_done 1",
		"campaign_cells_failed 1",
		"campaign_cells_skipped 1",
		"campaign_worker_panics 1",
		"# TYPE campaign_cells_total gauge\ncampaign_cells_total 4",
		"campaign_cells_running 1",
		// Extra snapshot, names sanitized to the Prometheus grammar.
		"# TYPE cache_hits counter\ncache_hits 12345",
		"energy_compute_uj 3.5",
		"# TYPE region_insts summary",
		"region_insts_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestServerNilTracker: a server over a nil tracker (sweepsim before its
// single cell registers) must serve empty-but-valid documents.
func TestServerNilTracker(t *testing.T) {
	ts := testServer(t, nil, nil)
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	code, body := get(t, ts.URL+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress: %d", code)
	}
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil || p.Total != 0 {
		t.Fatalf("nil progress: err=%v %+v", err, p)
	}
	if code, body := get(t, ts.URL+"/metrics"); code != http.StatusOK || strings.Contains(body, "campaign_") {
		t.Fatalf("nil metrics: %d\n%s", code, body)
	}
}

// TestServeGracefulShutdown pins the shutdown contract: a response in
// flight when shutdown is called completes in full — the old srv.Close()
// path reset the connection mid-body. The Extra hook doubles as the
// blocking point: /metrics calls it, so the test holds a scrape open
// inside the handler while shutdown begins.
func TestServeGracefulShutdown(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	srv := &Server{
		Info:    NewRunInfo("sweeptest", "engine-test"),
		Tracker: midCampaign(newFakeClock()),
		Extra: func() *telemetry.Snapshot {
			close(entered)
			<-release
			s := telemetry.NewSnapshot()
			s.Counters["slow.scrape"] = 1
			return s
		},
	}
	addr, shutdown, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	type scrape struct {
		code int
		body string
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{code: resp.StatusCode, body: string(body), err: err}
	}()

	<-entered // the scrape is inside the handler now
	done := make(chan struct{})
	go func() {
		shutdown()
		close(done)
	}()
	// http.Server.Shutdown closes its listeners before it waits for
	// in-flight responses, so a refused dial proves shutdown has begun;
	// only then may the handler finish its response.
	for deadline := time.Now().Add(2 * ShutdownGrace); ; {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			t.Fatal("shutdown never closed the listener")
		}
	}
	close(release)

	sc := <-got
	if sc.err != nil {
		t.Fatalf("in-flight scrape aborted by shutdown: %v", sc.err)
	}
	if sc.code != http.StatusOK || !strings.Contains(sc.body, "slow_scrape 1") {
		t.Fatalf("in-flight scrape incomplete: %d\n%s", sc.code, sc.body)
	}
	select {
	case <-done:
	case <-time.After(2 * ShutdownGrace):
		t.Fatal("shutdown did not return")
	}
	// The listener is gone: new connections must fail.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"cache.hits":       "cache_hits",
		"sim-instrs/s":     "sim_instrs_s",
		"already_fine":     "already_fine",
		"ns:scoped":        "ns:scoped",
		"9starts_numeric":  "_9starts_numeric",
		"mixed.CASE-name7": "mixed_CASE_name7",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
