package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"time"
)

// RetryPolicy bounds the client's transient-failure retry loop: total
// attempts, and a capped exponential backoff with jitter between them.
// The zero value disables retries (one attempt, no waiting), so struct-
// literal clients behave exactly as before; NewClient installs
// DefaultRetry.
type RetryPolicy struct {
	// Attempts is the total number of tries, including the first
	// (<= 0 means 1: no retries).
	Attempts int
	// Base is the delay before the first retry; each further retry
	// doubles it.
	Base time.Duration
	// Cap bounds the backoff however many retries have happened
	// (0 = uncapped).
	Cap time.Duration
}

// DefaultRetry is the policy NewClient installs: three tries with
// 100ms → 200ms backoff, capped at 2s. One dropped packet or a worker
// mid-restart no longer fails a sweepctl call.
var DefaultRetry = RetryPolicy{Attempts: 3, Base: 100 * time.Millisecond, Cap: 2 * time.Second}

// backoff returns the jittered delay before retry n (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.Base
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	return Jitter(Backoff(d, p.Cap, n))
}

// Backoff returns base doubled n times and capped at limit (limit <= 0
// means no cap). It saturates at the cap, or at the largest Duration,
// instead of overflowing, however large n is.
func Backoff(base, limit time.Duration, n int) time.Duration {
	if limit <= 0 {
		limit = math.MaxInt64
	}
	d := min(base, limit)
	for i := 0; i < n && d < limit; i++ {
		if d > limit/2 {
			return limit
		}
		d *= 2
	}
	return d
}

// Jitter draws a delay uniformly from the upper half of d, [d/2, d], so
// synchronized retriers spread out without ever retrying instantly.
func Jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// StatusError is a non-200 response from the server, carrying the
// status code so callers can tell a client fault (400: fix the request)
// from a simulation failure (500: retrying the cell may help) from a
// routing condition (503: an overloaded worker or gateway — go
// elsewhere). The distributed coordinator's retry/quarantine policy
// keys on this.
type StatusError struct {
	Status int
	Method string
	Path   string
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("client: %s %s: %d: %s", e.Method, e.Path, e.Status, e.Msg)
}

// retryableStatus reports whether a status code marks a transient
// server condition: a gateway hiccup or an overloaded worker.
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// Client talks to a sweepd instance. Safe for concurrent use.
type Client struct {
	// Base is the server root, e.g. "http://localhost:8077".
	Base string
	HTTP *http.Client
	// Retry governs transient-failure retries. Every service request is
	// idempotent — cells are content-addressed and memoized — so
	// connection-level failures and 502/503/504 responses are retried
	// up to Retry.Attempts with capped exponential backoff + jitter.
	// Anything else (400s, 500 simulation failures) is reported to the
	// caller, who owns cell-level policy. The zero value retries
	// nothing.
	Retry RetryPolicy
}

// NewClient builds a client for base (scheme optional; bare host:port
// gets "http://") with DefaultRetry and a transport whose dial and TLS
// handshake time out in seconds — a dead host fails fast instead of
// hanging for the kernel's SYN-retry eternity.
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		Base:  strings.TrimRight(base, "/"),
		HTTP:  &http.Client{Transport: NewTransport()},
		Retry: DefaultRetry,
	}
}

// NewTransport returns the client's default transport: bounded dial and
// TLS handshake timeouts, keep-alives for lease streams. There is
// deliberately no response-header or overall deadline — a cold
// /v1/cell blocks for the whole simulation, so wall-clock bounds are
// the caller's ctx's job (the coordinator uses the lease TTL).
func NewTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: 5 * time.Second,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// errBodyTooLarge marks a response body longer than maxBodyBytes. The
// client decodes no truncated body, and the same request would get the
// same response, so it is never retried.
var errBodyTooLarge = fmt.Errorf("response body over the %d MiB limit (split large batches)", maxBodyBytes>>20)

// retryable reports whether an attempt's failure is worth retrying: a
// transient status (502/503/504) or a transport-level error. Context
// cancellation and deadlines are the caller saying stop — never
// retried, and neither is an oversized response.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return retryableStatus(se.Status)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, errBodyTooLarge) {
		return false
	}
	// Everything else that escapes once() is connection-level (dial
	// refused/reset/timeout) or a torn response — transient by nature.
	return true
}

// do runs one JSON round trip with the retry policy. in == nil means GET.
func (c *Client) do(ctx context.Context, path string, in, out any) error {
	method := http.MethodGet
	var raw []byte
	if in != nil {
		method = http.MethodPost
		var err error
		raw, err = json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	attempts := c.Retry.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	var last error
	for try := 0; ; try++ {
		err := c.once(ctx, method, path, raw, out)
		if err == nil {
			return nil
		}
		last = err
		if try+1 >= attempts || !retryable(err) || ctx.Err() != nil {
			return last
		}
		t := time.NewTimer(c.Retry.backoff(try))
		select {
		case <-ctx.Done():
			t.Stop()
			return last
		case <-t.C:
		}
	}
}

// once is a single request/response cycle.
func (c *Client) once(ctx context.Context, method, path string, raw []byte, out any) error {
	var body io.Reader
	if raw != nil {
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if raw != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	// One byte past the limit tells a full body from a truncated one.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return fmt.Errorf("client: read %s: %w", path, err)
	}
	if len(data) > maxBodyBytes {
		return fmt.Errorf("client: %s %s: %w", method, path, errBodyTooLarge)
	}
	if resp.StatusCode != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &StatusError{Status: resp.StatusCode, Method: method, Path: path, Msg: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// Cell requests one cell.
func (c *Client) Cell(ctx context.Context, req CellRequest) (*CellResponse, error) {
	var resp CellResponse
	if err := c.do(ctx, "/v1/cell", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Cells requests a batch.
func (c *Client) Cells(ctx context.Context, reqs []CellRequest) ([]BatchItem, error) {
	var items []BatchItem
	if err := c.do(ctx, "/v1/cells", reqs, &items); err != nil {
		return nil, err
	}
	return items, nil
}

// Lease dispatches one coordinator lease to the worker.
func (c *Client) Lease(ctx context.Context, req LeaseRequest) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := c.do(ctx, "/v1/lease", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the service stats document.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health pings /healthz once; any answer but 200 surfaces here as a
// *StatusError.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, "/healthz", nil, nil)
}

// WaitHealthy polls /healthz until the server answers 200 or the
// deadline passes — the startup handshake for scripts and tests.
func (c *Client) WaitHealthy(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = c.Health(ctx); last == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fmt.Errorf("client: server not healthy after %v: %w", timeout, last)
}
