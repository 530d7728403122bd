package service_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// countingServer answers each request with the next status in seq
// (repeating the last forever), returning "{}" bodies on 200.
func countingServer(t *testing.T, seq ...int) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(hits.Add(1)) - 1
		if n >= len(seq) {
			n = len(seq) - 1
		}
		code := seq[n]
		w.Header().Set("Content-Type", "application/json")
		if code != http.StatusOK {
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"injected"}`))
			return
		}
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func fastRetry() service.RetryPolicy {
	return service.RetryPolicy{Attempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond}
}

// TestClientRetriesTransient: 503s (an overloaded worker, a gateway
// hiccup) are retried with backoff until an attempt succeeds.
func TestClientRetriesTransient(t *testing.T) {
	ts, hits := countingServer(t, http.StatusServiceUnavailable, http.StatusServiceUnavailable, http.StatusOK)
	cl := service.NewClient(ts.URL)
	cl.Retry = fastRetry()
	if _, err := cl.Stats(context.Background()); err != nil {
		t.Fatalf("third attempt should have succeeded: %v", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (two retries)", got)
	}
}

// TestClientNoRetryOnCallerFault: 400 means the request itself is
// wrong and 500 means the cell's computation failed — both are the
// caller's policy to handle, never silently retried.
func TestClientNoRetryOnCallerFault(t *testing.T) {
	for _, code := range []int{http.StatusBadRequest, http.StatusInternalServerError} {
		ts, hits := countingServer(t, code)
		cl := service.NewClient(ts.URL)
		cl.Retry = fastRetry()
		_, err := cl.Cell(context.Background(), testReq)
		if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("status %d: err = %v", code, err)
		}
		if got := hits.Load(); got != 1 {
			t.Fatalf("status %d retried: server saw %d requests, want 1", code, got)
		}
	}
}

// TestClientZeroValueNoRetry: a struct-literal client (zero RetryPolicy)
// behaves exactly as before retries existed — one attempt.
func TestClientZeroValueNoRetry(t *testing.T) {
	ts, hits := countingServer(t, http.StatusServiceUnavailable)
	cl := &service.Client{Base: ts.URL}
	if _, err := cl.Stats(context.Background()); err == nil {
		t.Fatal("503 must surface")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("zero-value client retried: %d requests", got)
	}
}

// TestClientRetryHonorsContext: a canceled context stops the backoff
// loop immediately instead of sleeping out the remaining retries.
func TestClientRetryHonorsContext(t *testing.T) {
	ts, hits := countingServer(t, http.StatusServiceUnavailable)
	cl := service.NewClient(ts.URL)
	cl.Retry = service.RetryPolicy{Attempts: 10, Base: time.Hour, Cap: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := cl.Stats(ctx)
		done <- err
	}()
	for hits.Load() == 0 { // let the first attempt land, then cancel mid-backoff
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled retry loop returned success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop ignored cancellation (still backing off)")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests after cancel, want 1", got)
	}
}

// TestClientRetriesConnError: a dropped connection (server gone between
// attempts... or never there) is transient; retries reach a server that
// comes back. Here the address refuses outright, so all attempts burn —
// but the error must be the connection error, not a panic or a hang.
func TestClientRetriesConnError(t *testing.T) {
	cl := service.NewClient("http://127.0.0.1:1")
	cl.Retry = fastRetry()
	start := time.Now()
	_, err := cl.Stats(context.Background())
	if err == nil {
		t.Fatal("connecting to a closed port succeeded")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("conn-refused retries took %v — backoff or dial timeout broken", el)
	}
}

// TestClientBodyTooLarge: a response one byte over the body limit (a
// batch of more than about 4,000 records) fails once, with an error that
// names the limit, instead of being decoded truncated and sent again.
func TestClientBodyTooLarge(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(" "), 8<<20+1))
	}))
	t.Cleanup(ts.Close)
	cl := service.NewClient(ts.URL)
	cl.Retry = fastRetry()
	_, err := cl.Cells(context.Background(), []service.CellRequest{testReq})
	if err == nil || !strings.Contains(err.Error(), "8 MiB limit") {
		t.Fatalf("err = %v, want one naming the 8 MiB limit", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (an oversized response is not retried)", got)
	}
}
