package dist

// The chaos suite for the distributed-campaign plane. Every scenario
// ends the same way: the merged result set's campaign digest must equal
// the single-process golden digest — worker kills, hung leases,
// stragglers, injected 500s, and torn journals are allowed to cost
// time, never correctness.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

// testMatrix is the suite's small campaign: 2 workloads × 2 schemes ×
// 3 seeds = 12 cells, enough completions to warm the hedger's p95
// window (8) with cells to spare.
var testMatrix = MatrixSpec{
	Workloads: []string{"sha", "adpcmenc"},
	Schemes:   []string{"Sweep-EmptyBit", "NVP"},
	Profile:   "RFHome",
	Seeds:     []int64{1, 2, 3},
}

// sameCell compares cell requests field-wise (Params is a byte slice,
// so == is unavailable on the struct).
func sameCell(a, b service.CellRequest) bool {
	return a.Workload == b.Workload && a.Scheme == b.Scheme &&
		a.Profile == b.Profile && a.Scale == b.Scale && a.Seed == b.Seed &&
		bytes.Equal(a.Params, b.Params)
}

// leaseHook inspects a decoded lease before the real handler sees it
// and returns an artificial delay and/or an HTTP status to inject
// (0 = pass through).
type leaseHook func(lr service.LeaseRequest) (delay time.Duration, status int)

// wrapLease intercepts /v1/lease, decodes the request for the hook,
// and restores the body for the real handler. Delays honor the request
// context, so canceled leases release immediately.
func wrapLease(h http.Handler, hook leaseHook) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hook != nil && r.URL.Path == "/v1/lease" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
			var lr service.LeaseRequest
			if json.Unmarshal(body, &lr) == nil {
				delay, status := hook(lr)
				if delay > 0 {
					select {
					case <-time.After(delay):
					case <-r.Context().Done():
						return
					}
				}
				if status != 0 {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(status)
					json.NewEncoder(w).Encode(map[string]string{"error": "injected failure"})
					return
				}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// startWorker boots one sweepd-equivalent worker: a Service over its
// own store path behind an httptest server, optionally wrapped with a
// lease hook.
func startWorker(t *testing.T, path string, hook leaseHook) (*httptest.Server, *service.Service) {
	t.Helper()
	svc, err := service.New(service.Config{StorePath: path})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler(obs.NewRunInfo("sweepd-test", sim.EngineVersion))
	ts := httptest.NewServer(wrapLease(h, hook))
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts, svc
}

// golden computes the single-process reference report for reqs.
func golden(t *testing.T, reqs []service.CellRequest) *Report {
	t.Helper()
	rep, err := RunLocal(context.Background(), reqs, nil)
	if err != nil {
		t.Fatalf("golden local run: %v", err)
	}
	if len(rep.Quarantined) != 0 {
		t.Fatalf("golden local run quarantined cells: %+v", rep.Quarantined)
	}
	return rep
}

// fastCfg shortens the lease TTL and the stall bound for test wall
// clocks.
func fastCfg(workers ...string) Config {
	return Config{
		Workers:      workers,
		LeaseTTL:     20 * time.Second,
		StallTimeout: 30 * time.Second,
	}
}

// requireGoldenDigests pins the whole point: the distributed campaign's
// merged result set is byte-identical to the single-process run.
func requireGoldenDigests(t *testing.T, rep, gold *Report) {
	t.Helper()
	if got, want := rep.CampaignDigest(), gold.CampaignDigest(); got != want {
		var a, b bytes.Buffer
		rep.WriteDigests(&a)
		gold.WriteDigests(&b)
		t.Fatalf("campaign digest %s != golden %s\ndistributed:\n%sgolden:\n%s", got, want, a.String(), b.String())
	}
}

// TestDistCampaignMatchesLocal is the no-fault baseline: two healthy
// workers, every cell completes, digests golden, no reissues needed.
func TestDistCampaignMatchesLocal(t *testing.T) {
	reqs := testMatrix.Requests()
	gold := golden(t, reqs)
	dir := t.TempDir()
	w0, _ := startWorker(t, filepath.Join(dir, "w0.jsonl"), nil)
	w1, _ := startWorker(t, filepath.Join(dir, "w1.jsonl"), nil)

	mergePath := filepath.Join(dir, "merged.jsonl")
	merge, err := journal.Open(mergePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg(w0.URL, w1.URL)
	cfg.MergeJournal = merge
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rep, err := coord.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("campaign: %v (report %s)", err, rep.Summary())
	}
	merge.Close()
	if len(rep.Completed) != len(reqs) || len(rep.Quarantined) != 0 {
		t.Fatalf("completed %d of %d, quarantined %d", len(rep.Completed), len(reqs), len(rep.Quarantined))
	}
	requireGoldenDigests(t, rep, gold)

	// The merged journal replays: every accepted record is durable and
	// digest-clean under the normal tolerant Open.
	j, err := journal.Open(mergePath)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	st := j.Stats()
	if st.Loaded != len(reqs) || st.Corrupt != 0 {
		t.Fatalf("merged journal: loaded %d corrupt %d, want %d/0", st.Loaded, st.Corrupt, len(reqs))
	}
}

// TestDistWorkerKillAndTornJournal is the headline chaos scenario:
// three workers, one SIGKILL-equivalent mid-campaign (connections torn
// down hard), one worker restarted over a chaos-corrupted journal —
// and the merged digests still match the single-process golden run,
// with the kill visible as reissues.
func TestDistWorkerKillAndTornJournal(t *testing.T) {
	reqs := testMatrix.Requests()
	gold := golden(t, reqs)
	dir := t.TempDir()

	// Worker 2's journal is pre-populated with a few of the campaign's
	// own cells, then corrupted — the torn-tail crash signature. Its
	// tolerant Open must count the damage and the worker simply
	// re-simulates what the tail lost.
	tornPath := filepath.Join(dir, "w2.jsonl")
	pre, err := service.New(service.Config{StorePath: tornPath})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range pre.Cells(context.Background(), reqs[:3]) {
		if it.Error != "" {
			t.Fatalf("pre-populate: %s", it.Error)
		}
	}
	pre.Close()
	var corrupted bool
	for seed := int64(1); seed <= 8; seed++ {
		if err := chaos.CorruptFile(tornPath, seed); err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(tornPath)
		if err != nil {
			t.Fatal(err)
		}
		st := j.Stats()
		j.Close()
		if st.Corrupt > 0 || st.TailError != "" {
			t.Logf("journal corrupted with seed %d: corrupt=%d tail=%q loaded=%d", seed, st.Corrupt, st.TailError, st.Loaded)
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("CorruptFile never produced visible damage across 8 seeds")
	}

	// Slow every lease slightly so the campaign is provably still in
	// flight when the kill lands.
	slow := func(service.LeaseRequest) (time.Duration, int) { return 100 * time.Millisecond, 0 }
	w0, _ := startWorker(t, filepath.Join(dir, "w0.jsonl"), slow)
	w1, _ := startWorker(t, filepath.Join(dir, "w1.jsonl"), slow)
	w2, svc2 := startWorker(t, tornPath, slow)
	if st := svc2.Store().Stats(); st.Disk.Corrupt == 0 && st.Disk.TailError == "" {
		t.Fatalf("worker over torn journal reports no damage: %+v", st.Disk)
	}

	tracker := obs.NewCampaignTracker(nil)
	cfg := fastCfg(w0.URL, w1.URL, w2.URL)
	cfg.Tracker = tracker
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	type result struct {
		rep *Report
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		rep, err := coord.Run(context.Background(), reqs)
		resCh <- result{rep, err}
	}()

	// Kill worker 0 the moment the campaign has proven progress but
	// cannot have finished (12 cells × 100ms floor ÷ 6 lanes ≫ poll).
	deadline := time.Now().Add(30 * time.Second)
	for {
		if p := tracker.Progress(); p.Done >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w0.CloseClientConnections() // tear in-flight leases down hard (SIGKILL signature)
	w0.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatalf("campaign: %v (report %s)", res.err, res.rep.Summary())
	}
	rep := res.rep
	t.Logf("chaos campaign: %s", rep.Summary())
	if len(rep.Completed) != len(reqs) || len(rep.Quarantined) != 0 {
		t.Fatalf("completed %d of %d, quarantined %d", len(rep.Completed), len(reqs), len(rep.Quarantined))
	}
	if rep.Reissues == 0 {
		t.Fatal("worker kill mid-campaign caused no reissues — the kill landed after completion, test proved nothing")
	}
	requireGoldenDigests(t, rep, gold)
}

// TestDistStragglerHedged: one cell's first lease hangs (a stalled
// worker thread); the hedger must re-dispatch it at k×p95 and the
// hedge's completion must cancel the straggler.
func TestDistStragglerHedged(t *testing.T) {
	reqs := testMatrix.Requests()
	gold := golden(t, reqs)
	straggle := reqs[len(reqs)-1]
	hook := func(lr service.LeaseRequest) (time.Duration, int) {
		if lr.Attempt == 1 && sameCell(lr.Cell, straggle) {
			return 60 * time.Second, 0 // far beyond any hedge threshold; ctx-aware
		}
		return 0, 0
	}
	dir := t.TempDir()
	w0, _ := startWorker(t, filepath.Join(dir, "w0.jsonl"), hook)
	w1, _ := startWorker(t, filepath.Join(dir, "w1.jsonl"), hook)

	cfg := fastCfg(w0.URL, w1.URL)
	cfg.HedgeK = 2
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rep, err := coord.Run(context.Background(), reqs)
	if err != nil {
		t.Fatalf("campaign: %v (report %s)", err, rep.Summary())
	}
	t.Logf("straggler campaign: %s", rep.Summary())
	if len(rep.Completed) != len(reqs) || len(rep.Quarantined) != 0 {
		t.Fatalf("completed %d of %d, quarantined %d", len(rep.Completed), len(reqs), len(rep.Quarantined))
	}
	if rep.Hedges == 0 {
		t.Fatal("straggling cell was never hedged")
	}
	for _, o := range rep.Completed {
		if sameCell(o.Cell, straggle) && o.Attempts < 2 {
			t.Fatalf("straggling cell completed with %d attempts, want >= 2 (the hedge)", o.Attempts)
		}
	}
	requireGoldenDigests(t, rep, gold)
}

// TestDistQuarantine: a cell that fails deterministically (500 on every
// attempt, every worker) is retried with backoff, quarantined at
// MaxAttempts, and explicitly reported — while the rest of the campaign
// completes and Run returns no error (graceful degradation). A 400
// (request poisoned everywhere) quarantines immediately.
func TestDistQuarantine(t *testing.T) {
	reqs := testMatrix.Requests()
	poisoned := reqs[0]
	bad := service.CellRequest{Workload: "no-such-workload", Scheme: "NVP"}
	all := append(append([]service.CellRequest{}, reqs...), bad)

	var injected atomic.Int32
	hook := func(lr service.LeaseRequest) (time.Duration, int) {
		if sameCell(lr.Cell, poisoned) {
			injected.Add(1)
			return 0, http.StatusInternalServerError
		}
		return 0, 0
	}
	dir := t.TempDir()
	w0, _ := startWorker(t, filepath.Join(dir, "w0.jsonl"), hook)
	w1, _ := startWorker(t, filepath.Join(dir, "w1.jsonl"), hook)

	cfg := fastCfg(w0.URL, w1.URL)
	cfg.MaxAttempts = 3
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	rep, err := coord.Run(context.Background(), all)
	if err != nil {
		t.Fatalf("quarantine must degrade gracefully, not fail the run: %v", err)
	}
	t.Logf("quarantine campaign: %s", rep.Summary())
	if len(rep.Completed) != len(reqs)-1 {
		t.Fatalf("completed %d, want %d (all but the poisoned cell)", len(rep.Completed), len(reqs)-1)
	}
	if len(rep.Quarantined) != 2 {
		t.Fatalf("quarantined %d cells, want 2 (deterministic 500 + unknown workload): %+v", len(rep.Quarantined), rep.Quarantined)
	}
	var saw500, saw400 bool
	for _, q := range rep.Quarantined {
		switch {
		case sameCell(q.Cell, poisoned):
			saw500 = true
			if q.Attempts != cfg.MaxAttempts {
				t.Errorf("500-poisoned cell quarantined after %d attempts, want %d", q.Attempts, cfg.MaxAttempts)
			}
			if q.LastError == "" {
				t.Error("500-poisoned cell reported with empty last error")
			}
		case sameCell(q.Cell, bad):
			saw400 = true
			if q.Attempts != 1 {
				t.Errorf("400 cell quarantined after %d attempts, want 1 (no retry can fix a bad request)", q.Attempts)
			}
		}
	}
	if !saw500 || !saw400 {
		t.Fatalf("quarantine list missing a scenario: %+v", rep.Quarantined)
	}
	if got := int(injected.Load()); got != cfg.MaxAttempts {
		t.Errorf("injected %d failures, want exactly MaxAttempts=%d dispatches", got, cfg.MaxAttempts)
	}
	if rep.Retries < cfg.MaxAttempts-1 {
		t.Errorf("retries %d, want >= %d (backoff retries before quarantine)", rep.Retries, cfg.MaxAttempts-1)
	}
}

// TestDistStallFails: when no worker answers at all, the campaign fails
// on the stall bound instead of re-issuing leases until the caller's
// deadline, and soon after the bound: the watch loop checks it every
// hedgeInterval, so a bound below a second holds.
func TestDistStallFails(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // every lease now fails to connect
	cfg := fastCfg(dead.URL)
	cfg.StallTimeout = 300 * time.Millisecond
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	rep, err := coord.Run(ctx, testMatrix.Requests())
	took := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "campaign stalled") {
		t.Fatalf("campaign with no live worker returned %v, want the stall error", err)
	}
	if len(rep.Completed) != 0 {
		t.Fatalf("completed %d cells with no live worker", len(rep.Completed))
	}
	if took > 3*cfg.StallTimeout {
		t.Fatalf("campaign stalled after %v, want within 3× the %v bound", took, cfg.StallTimeout)
	}
}

// TestDistDuplicateCompletion drives the first-wins dedup directly:
// a duplicated lease delivery is counted, a disagreeing duplicate
// digest is flagged as a mismatch, and neither double-retires the task.
func TestDistDuplicateCompletion(t *testing.T) {
	coord, err := New(Config{Workers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	req := service.CellRequest{Workload: "sha", Scheme: "NVP"}
	coord.cfg.Tracker.AddCells([]obs.CellMeta{{Workload: "sha", Scheme: "NVP"}})
	tk := &task{idx: 0, req: req, inflight: map[string]func(){}}
	coord.tasks = []*task{tk}
	coord.remain = 1

	mk := func(lease, digest string) *service.LeaseResponse {
		return &service.LeaseResponse{
			LeaseID: lease, Worker: "w",
			Result: &service.CellResponse{Key: "k", Digest: digest, Record: &journal.Record{}},
		}
	}
	coord.complete(0, tk, mk("l1", "d1"))
	if !tk.done || coord.remain != 0 {
		t.Fatalf("first completion not accepted: done=%v remain=%d", tk.done, coord.remain)
	}
	coord.complete(0, tk, mk("l2", "d1")) // duplicated delivery, same digest
	coord.complete(0, tk, mk("l3", "d2")) // duplicate with a WRONG digest
	if coord.rep.Duplicates != 2 {
		t.Fatalf("duplicates %d, want 2", coord.rep.Duplicates)
	}
	if coord.rep.DigestMismatches != 1 {
		t.Fatalf("digest mismatches %d, want 1 (the disagreeing duplicate)", coord.rep.DigestMismatches)
	}
	if coord.remain != 0 || tk.out.Digest != "d1" {
		t.Fatalf("duplicate completion disturbed the accepted outcome: remain=%d digest=%q", coord.remain, tk.out.Digest)
	}
	select {
	case <-coord.doneCh:
	default:
		t.Fatal("doneCh never closed")
	}
}

// TestDistNoGoroutineLeak: a completed campaign and a canceled one both
// return every goroutine — lanes, the watch loop, and canceled in-flight
// leases included.
func TestDistNoGoroutineLeak(t *testing.T) {
	reqs := MatrixSpec{
		Workloads: []string{"sha"}, Schemes: []string{"NVP", "Sweep-EmptyBit"},
		Profile: "RFHome", Seeds: []int64{1, 2},
	}.Requests()
	before := runtime.NumGoroutine()

	run := func(cancelMidway bool) {
		dir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var hook leaseHook
		if cancelMidway {
			// The first lease cancels the campaign, and the hook holds
			// every lease 50 ms: the cancel lands with no cell complete,
			// however fast the host.
			var first atomic.Bool
			hook = func(service.LeaseRequest) (time.Duration, int) {
				if first.CompareAndSwap(false, true) {
					cancel()
				}
				return 50 * time.Millisecond, 0
			}
		}
		w0, _ := startWorker(t, filepath.Join(dir, "w0.jsonl"), hook)
		coord, err := New(fastCfg(w0.URL))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := coord.Run(ctx, reqs)
		if cancelMidway {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled campaign returned %v, want context.Canceled", err)
			}
		} else if err != nil {
			t.Fatalf("campaign: %v (report %s)", err, rep.Summary())
		}
		coord.Close()
		w0.CloseClientConnections()
		w0.Close()
	}
	run(false)
	run(true)

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines %d > %d+2 after settle:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestMatrixSpec pins request expansion and the flag parsers.
func TestMatrixSpec(t *testing.T) {
	wl, err := ParseWorkloads("quick")
	if err != nil || len(wl) != 8 {
		t.Fatalf("quick workloads: %v %v", wl, err)
	}
	if _, err := ParseWorkloads("sha,nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	sc, err := ParseSchemes("")
	if err != nil || len(sc) != 4 {
		t.Fatalf("eval schemes: %v %v", sc, err)
	}
	if _, err := ParseSchemes("NVP,bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	reqs := MatrixSpec{Workloads: []string{"a", "b"}, Schemes: []string{"X"}, Seeds: []int64{1, 2, 3}}.Requests()
	if len(reqs) != 6 {
		t.Fatalf("matrix expanded to %d cells, want 6", len(reqs))
	}
	if reqs[0].Seed != 1 || reqs[5].Workload != "b" {
		t.Fatalf("matrix order drifted: %+v", reqs)
	}
}
