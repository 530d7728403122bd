package service_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestLeaseEndToEnd: a lease is the cell path plus coordinator
// bookkeeping — the result digest matches a direct engine run, the
// lease ID and attempt echo back, and the worker identifies itself
// with the /runinfo run ID.
func TestLeaseEndToEnd(t *testing.T) {
	want := directDigest(t)
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	info := obs.NewRunInfo("sweepd-test", sim.EngineVersion)
	ts := httptest.NewServer(svc.Handler(info))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := service.NewClient(ts.URL)

	resp, err := cl.Lease(context.Background(), service.LeaseRequest{
		LeaseID: "lease-1", Attempt: 2, TTLMs: 60_000, Cell: testReq,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LeaseID != "lease-1" || resp.Attempt != 2 {
		t.Fatalf("lease echo drifted: %+v", resp)
	}
	if resp.Worker != info.RunID {
		t.Fatalf("lease worker %q, want the /runinfo run ID %q", resp.Worker, info.RunID)
	}
	if resp.Result == nil || resp.Result.Digest != want {
		t.Fatalf("lease digest != direct engine run: %+v", resp.Result)
	}

	// A lease without an ID is a coordinator bug: 400, not a simulation.
	if _, err := cl.Lease(context.Background(), service.LeaseRequest{Cell: testReq}); err == nil ||
		!strings.Contains(err.Error(), "400") {
		t.Fatalf("missing lease_id: err = %v, want 400", err)
	}
}

// TestLeaseDraining: StartDrain flips the worker to 503 for new leases
// and for /healthz, so coordinators route around it — and the client
// surfaces the status in a typed error.
func TestLeaseDraining(t *testing.T) {
	svc, ts, cl := startService(t, "")
	if err := cl.Health(context.Background()); err != nil {
		t.Fatalf("healthy before drain: %v", err)
	}
	svc.StartDrain()
	if !svc.Draining() {
		t.Fatal("Draining() false after StartDrain")
	}

	cl.Retry = service.RetryPolicy{} // assert on the raw 503, no backoff
	_, err := cl.Lease(context.Background(), service.LeaseRequest{LeaseID: "l", Cell: testReq})
	var se *service.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("lease while draining: err = %v, want typed 503", err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body.String(), "draining") {
		t.Fatalf("healthz while draining: %d %q", resp.StatusCode, body.String())
	}
	if st := svc.Stats(); st.Health.State != obs.HealthDraining {
		t.Fatalf("stats health %+v, want draining", st.Health)
	}

	// Plain cell requests still work during drain: only new leases are
	// refused, so in-flight coordinator traffic elsewhere is unaffected.
	if _, err := cl.Cell(context.Background(), testReq); err != nil {
		t.Fatalf("cell during drain: %v", err)
	}
}

// TestFailingCellKeepsDaemonHealthy: a cell that fails deterministically
// (chaos panic probability 1) answers 500 on every request and counts
// each in service.failures, while /healthz stays 200 and /v1/stats
// reports ok: what to do about a poisoned cell is the coordinator's
// decision, not the worker's.
func TestFailingCellKeepsDaemonHealthy(t *testing.T) {
	svc, err := service.New(service.Config{
		Chaos: chaos.New(chaos.Config{Seed: 1, PanicProb: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler(obs.NewRunInfo("sweepd-test", sim.EngineVersion)))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	cl := service.NewClient(ts.URL)
	cl.Retry = service.RetryPolicy{} // 500s are terminal; don't retry in the client

	const requests = 5
	for i := 0; i < requests; i++ {
		_, err := cl.Cell(context.Background(), testReq)
		var se *service.StatusError
		if !errors.As(err, &se) || se.Status != http.StatusInternalServerError {
			t.Fatalf("request %d: err = %v, want typed 500", i+1, err)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after %d failures: %d, want 200", requests, resp.StatusCode)
	}
	if err := cl.Health(context.Background()); err != nil {
		t.Fatalf("client health after %d failures: %v", requests, err)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Counters["service.failures"]; got != requests {
		t.Fatalf("service.failures = %d, want %d", got, requests)
	}
	if st.Health.State != obs.HealthOK {
		t.Fatalf("stats health %+v, want ok", st.Health)
	}
}

// TestServiceStatsTailError: a journal tail the scanner cannot read is
// operator-visible end to end — journal.Stats.TailError rides
// store.Stats into the /v1/stats document a sweepctl stats call reads.
func TestServiceStatsTailError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'x'}, 1<<20)
	for i := 0; i < 65; i++ { // one line past the 64 MB scanner cap
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	_, _, cl := startService(t, path)
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Store.Disk.TailError == "" {
		t.Fatalf("/v1/stats hides the journal tail error: %+v", st.Store.Disk)
	}
	if !strings.Contains(st.Store.Disk.TailError, "too long") && !strings.Contains(st.Store.Disk.TailError, "token") {
		t.Logf("tail error text: %q", st.Store.Disk.TailError)
	}
}
