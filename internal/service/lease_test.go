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
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
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
		LeaseID: "lease-1", Attempt: 2, Cell: testReq,
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

// TestLeaseCanceledByClient: the worker keeps no lease deadline of its
// own. When the coordinator gives up on a lease, its client closes the
// connection, the server cancels the request's context, and the
// simulation ends there: the flight fails and stores nothing.
func TestLeaseCanceledByClient(t *testing.T) {
	svc, _, cl := startService(t, "")
	cl.Retry = service.RetryPolicy{}
	// About 1.4 s of simulation on a 2-vCPU Xeon: far past the deadline.
	slow := service.CellRequest{Workload: "jpegenc", Scheme: "NVP", Profile: "RFOffice", Scale: 300}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := cl.Lease(ctx, service.LeaseRequest{LeaseID: "slow", Attempt: 1, Cell: slow})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("lease past its client deadline: err = %v, want context.DeadlineExceeded", err)
	}
	// The flight has ended once it has started (a miss) and none is left.
	var st store.Stats
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st = svc.Store().Stats(); st.Misses == 1 && st.InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still simulating 5 s after its client gave up: %+v", st)
		}
	}
	if st.Errors != 1 || st.MemEntries != 0 {
		t.Fatalf("after the client gave up: %d errors, %d records; want the one flight failed and nothing stored",
			st.Errors, st.MemEntries)
	}
}

// TestFailingCellKeepsDaemonHealthy: a cell that fails deterministically
// (chaos panic probability 1) answers 500 on every request and counts
// each in service.failures, while /healthz stays 200 "ok": what to do
// about a poisoned cell is the coordinator's decision, not the worker's.
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
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(body.String()) != "ok" {
		t.Fatalf("healthz after %d failures: %d %q, want 200 ok", requests, resp.StatusCode, body.String())
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
