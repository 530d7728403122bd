package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/sim"
	"repro/internal/store"
)

// cellN builds a distinct cell identity per n; the key space the torture
// tests overlap on.
func cellN(n int) journal.Cell {
	return journal.Cell{
		Workload: fmt.Sprintf("wl%03d", n), Scale: 1, Scheme: "Sweep-EmptyBit",
		Profile: "RFHome", Seed: int64(n),
		ParamsFP: "deadbeefdeadbeefdeadbeefdeadbeef", Engine: sim.EngineVersion,
	}
}

// recN builds a deterministic synthetic record per n — the store's
// contract is content-addressed caching, not simulation, so the tests
// can use cheap records with distinctive fields.
func recN(n int) *journal.Record {
	return &journal.Record{Result: sim.Result{
		Scheme: "Sweep-EmptyBit", Halted: true,
		TimeNs: int64(1000 + n), RunNs: int64(900 + n),
		Outages: uint64(n), CacheHits: uint64(n * 7),
	}}
}

func openStore(t *testing.T, path string) *store.Store {
	t.Helper()
	s, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTiers walks one cell through the three tiers: computed on first
// request, memory on the second, disk (after a cold restart) on the
// third and every later one — with byte-identical records and digests
// throughout.
func TestTiers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s := openStore(t, path)
	c := cellN(1)

	computes := 0
	compute := func(context.Context) (*journal.Record, error) {
		computes++
		return recN(1), nil
	}

	rec1, tier, err := s.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierNone || computes != 1 {
		t.Fatalf("first request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	rec2, tier, err := s.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierMemory || computes != 1 {
		t.Fatalf("second request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	if rec2.Digest() != rec1.Digest() {
		t.Fatal("memory tier served a different record")
	}
	if st := s.Stats(); st.MemHits != 1 || st.DiskHits != 0 {
		t.Fatalf("memory hit counted as %d memory + %d disk hits, want 1 + 0", st.MemHits, st.DiskHits)
	}
	s.Close()

	// Cold restart: fresh store over the same journal path.
	s2 := openStore(t, path)
	rec3, tier, err := s2.GetOrCompute(context.Background(), c, compute)
	if err != nil || tier != store.TierDisk || computes != 1 {
		t.Fatalf("post-restart request: tier=%v err=%v computes=%d", tier, err, computes)
	}
	a, _ := json.Marshal(rec1)
	b, _ := json.Marshal(rec3)
	if !bytes.Equal(a, b) {
		t.Fatal("disk tier record not byte-identical to the computed one")
	}
	// A tier is the record's origin: it was loaded at Open, so the next
	// request is a disk hit too.
	if _, tier, _ := s2.GetOrCompute(context.Background(), c, compute); tier != store.TierDisk {
		t.Fatalf("second post-restart request: tier=%v, want disk", tier)
	}
}

// TestTierIsOrigin pins what a tier means over the one index: a record
// loaded from the journal file is a disk hit on every lookup, and one
// computed since is a memory hit on every lookup; MemEntries counts
// both. A memory-only store serves its computed cells from memory, and
// its Close does nothing.
func TestTierIsOrigin(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(cellN(1), recN(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	compute := func(n int) func(context.Context) (*journal.Record, error) {
		return func(context.Context) (*journal.Record, error) { return recN(n), nil }
	}
	s := openStore(t, path)
	if _, tier, err := s.GetOrCompute(context.Background(), cellN(2), compute(2)); err != nil || tier != store.TierNone {
		t.Fatalf("new cell: tier=%v err=%v, want a compute", tier, err)
	}
	for i := 0; i < 3; i++ {
		for n, want := range map[int]store.Tier{1: store.TierDisk, 2: store.TierMemory} {
			rec, tier, err := s.GetOrCompute(context.Background(), cellN(n), compute(-1))
			if err != nil || tier != want || rec.Digest() != recN(n).Digest() {
				t.Fatalf("lookup %d of cell %d: tier=%v err=%v, want %v", i, n, tier, err, want)
			}
		}
	}
	if st := s.Stats(); st.MemEntries != 2 || st.DiskHits != 3 || st.MemHits != 3 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 entries, 3 disk + 3 memory hits, 1 miss", st)
	}

	mem := store.New(nil)
	if err := mem.Close(); err != nil {
		t.Fatalf("memory-only Close: %v", err)
	}
	// Close did nothing: computes and lookups go on.
	for n := 1; n <= 2; n++ {
		if _, tier, err := mem.GetOrCompute(context.Background(), cellN(n), compute(n)); err != nil || tier != store.TierNone {
			t.Fatalf("memory-only compute of cell %d: tier=%v err=%v", n, tier, err)
		}
		if _, tier, ok := mem.Lookup(cellN(n)); !ok || tier != store.TierMemory {
			t.Fatalf("memory-only lookup of cell %d: tier=%v ok=%v, want memory", n, tier, ok)
		}
	}
	if st := mem.Stats(); st.MemEntries != 2 || st.MemHits != 2 || st.DiskHits != 0 || st.Disk != (journal.Stats{}) {
		t.Fatalf("memory-only stats = %+v, want 2 entries, 2 memory hits, no journal file counts", st)
	}
}

// TestSingleflightExactlyOnce: many concurrent requests per key, one
// simulation per key — the dedup invariant the service's cost model
// rests on. Every compute holds its flight open until all followers of
// every key have joined, so each non-leader must collapse onto a flight:
// the counts are exact, with no hits.
func TestSingleflightExactlyOnce(t *testing.T) {
	const keys, callers = 8, 12
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"))

	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	digests := make([][]string, keys)
	for k := 0; k < keys; k++ {
		digests[k] = make([]string, callers)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				<-start
				rec, _, err := s.GetOrCompute(context.Background(), cellN(k),
					func(context.Context) (*journal.Record, error) {
						computes[k].Add(1)
						waitCollapses(s, keys*(callers-1))
						return recN(k), nil
					})
				if err != nil {
					t.Errorf("key %d caller %d: %v", k, i, err)
					return
				}
				digests[k][i] = rec.Digest()
			}(k, i)
		}
	}
	close(start)
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d simulated %d times, want exactly once", k, n)
		}
		for i := 1; i < callers; i++ {
			if digests[k][i] != digests[k][0] {
				t.Errorf("key %d: caller %d got a different record", k, i)
			}
		}
	}
	st := s.Stats()
	if st.Misses != keys || st.DedupCollapses != keys*(callers-1) || st.MemHits != 0 || st.DiskHits != 0 {
		t.Errorf("stats: %d misses, %d collapses, %d mem + %d disk hits; want %d, %d, 0 + 0",
			st.Misses, st.DedupCollapses, st.MemHits, st.DiskHits, keys, keys*(callers-1))
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight %d after quiescence", st.InFlight)
	}
}

// TestTortureOverlappingKeys is the -race workhorse: parallel Lookup
// and singleflight misses over an overlapping key space. Afterwards:
// exactly one compute per key ever ran, and a cold reopen serves every
// key byte-identically from disk.
func TestTortureOverlappingKeys(t *testing.T) {
	const keys, workers, opsPerWorker = 16, 8, 200
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	s := openStore(t, path)

	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for op := 0; op < opsPerWorker; op++ {
				k := (w*31 + op*17) % keys
				switch op % 3 {
				case 0:
					if rec, _, ok := s.Lookup(cellN(k)); ok && rec.TimeNs != int64(1000+k) {
						t.Errorf("lookup key %d returned foreign record", k)
					}
				default:
					rec, _, err := s.GetOrCompute(context.Background(), cellN(k),
						func(context.Context) (*journal.Record, error) {
							computes[k].Add(1)
							return recN(k), nil
						})
					if err != nil {
						t.Errorf("key %d: %v", k, err)
					} else if rec.TimeNs != int64(1000+k) {
						t.Errorf("key %d served foreign record", k)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d simulated %d times, want exactly once", k, n)
		}
	}
	if st := s.Stats(); st.Errors != 0 {
		t.Errorf("%d compute errors during torture", st.Errors)
	}
	s.Close()

	// Byte-identical across tiers: a cold store must serve every key from
	// disk with the exact bytes the computes produced.
	s2 := openStore(t, path)
	for k := 0; k < keys; k++ {
		rec, tier, ok := s2.Lookup(cellN(k))
		if !ok || tier != store.TierDisk {
			t.Fatalf("key %d not on disk after torture (ok=%v tier=%v)", k, ok, tier)
		}
		a, _ := json.Marshal(recN(k))
		b, _ := json.Marshal(rec)
		if !bytes.Equal(a, b) {
			t.Errorf("key %d: disk record not byte-identical", k)
		}
	}
}

// TestDurableBeforeMemoryIsDedup holds a leader after its record is
// durable and indexed but before its flight ends (the compute appends
// the record itself, as the leader's own append would) and sends an
// identical request into that window. The request must join the flight
// as a dedup collapse, not hit a record its leader has not returned.
func TestDurableBeforeMemoryIsDedup(t *testing.T) {
	j, err := journal.Open(filepath.Join(t.TempDir(), "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	s := store.New(j)
	t.Cleanup(func() { s.Close() })
	c := cellN(1)

	appended := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), c,
			func(context.Context) (*journal.Record, error) {
				if err := j.Append(c, recN(1)); err != nil {
					return nil, err
				}
				close(appended)
				<-release
				return recN(1), nil
			})
		leaderDone <- err
	}()
	<-appended

	type reply struct {
		rec  *journal.Record
		tier store.Tier
		err  error
	}
	followerDone := make(chan reply, 1)
	go func() {
		rec, tier, err := s.GetOrCompute(context.Background(), c,
			func(context.Context) (*journal.Record, error) {
				return nil, errors.New("follower must not compute")
			})
		followerDone <- reply{rec, tier, err}
	}()
	// Wait until the store has classified the follower: a dedup follower
	// blocks on the flight, a tier hit returns at once.
	for {
		st := s.Stats()
		if st.DedupCollapses+st.MemHits+st.DiskHits > 0 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	r := <-followerDone
	if r.err != nil || r.tier != store.TierNone || r.rec.Digest() != recN(1).Digest() {
		t.Fatalf("follower: tier=%v err=%v", r.tier, r.err)
	}
	if st := s.Stats(); st.DedupCollapses != 1 || st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("follower in the publish window: dedup %d, disk hits %d, misses %d; want 1, 0, 1",
			st.DedupCollapses, st.DiskHits, st.Misses)
	}
}

// TestComputeErrorNotCached: a failed compute reaches every concurrent
// waiter and is cached nowhere — the next request retries and can
// succeed.
func TestComputeErrorNotCached(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	boom := errors.New("supply collapsed")
	_, _, err := s.GetOrCompute(context.Background(), cellN(1),
		func(context.Context) (*journal.Record, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the compute error", err)
	}
	rec, tier, err := s.GetOrCompute(context.Background(), cellN(1),
		func(context.Context) (*journal.Record, error) { return recN(1), nil })
	if err != nil || tier != store.TierNone || rec == nil {
		t.Fatalf("retry after error: tier=%v err=%v", tier, err)
	}
	if st := s.Stats(); st.Misses != 2 || st.Errors != 1 {
		t.Fatalf("stats after error+retry: %+v", st)
	}
}

// TestFollowerCancellation: a follower whose context ends stops waiting
// with ctx.Err() while the leader's compute finishes and lands in the
// store.
func TestFollowerCancellation(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	inCompute := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(context.Background(), cellN(1),
			func(context.Context) (*journal.Record, error) {
				close(inCompute)
				<-release
				return recN(1), nil
			})
		leaderDone <- err
	}()
	<-inCompute

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(ctx, cellN(1),
			func(context.Context) (*journal.Record, error) {
				t.Error("follower must not compute")
				return nil, errors.New("unreachable")
			})
		followerDone <- err
	}()
	// Let the follower join the flight, then cancel only it.
	waitCollapses(s, 1)
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower err = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled follower still waiting")
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	if _, tier, ok := s.Lookup(cellN(1)); !ok || tier != store.TierMemory {
		t.Fatalf("leader's record missing after follower cancellation (ok=%v tier=%v)", ok, tier)
	}
}

// TestFollowerSurvivesLeaderCancellation: when the leader's context
// ends mid-compute (its client disconnected, its lease TTL fired), a
// follower whose own context is live must not inherit the leader's
// context.Canceled — that would surface as a 500 to a client that did
// nothing wrong. It retries and leads a fresh flight instead.
func TestFollowerSurvivesLeaderCancellation(t *testing.T) {
	s := openStore(t, filepath.Join(t.TempDir(), "cells.jsonl"))
	inCompute := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := s.GetOrCompute(leaderCtx, cellN(1),
			func(ctx context.Context) (*journal.Record, error) {
				close(inCompute)
				<-ctx.Done()
				return nil, ctx.Err()
			})
		leaderDone <- err
	}()
	<-inCompute

	type reply struct {
		rec  *journal.Record
		tier store.Tier
		err  error
	}
	followerDone := make(chan reply, 1)
	go func() {
		rec, tier, err := s.GetOrCompute(context.Background(), cellN(1),
			func(context.Context) (*journal.Record, error) { return recN(1), nil })
		followerDone <- reply{rec, tier, err}
	}()
	waitCollapses(s, 1)
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-followerDone
	if r.err != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", r.err)
	}
	if r.tier != store.TierNone || r.rec.Digest() != recN(1).Digest() {
		t.Fatalf("follower: tier=%v, want a fresh compute of the cell", r.tier)
	}
	if st := s.Stats(); st.Misses != 2 || st.DedupCollapses != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want 2 misses (leader, then follower), 1 collapse, none in flight", st)
	}
}

// waitCollapses blocks until the store has counted n dedup collapses:
// n followers have joined a flight.
func waitCollapses(s *store.Store, n uint64) {
	for s.Stats().DedupCollapses < n {
		runtime.Gosched()
	}
}

// TestTailErrorPropagates pins the operator-visibility chain for a
// truncated-tail disaster: a journal whose tail the scanner cannot read
// (a line beyond the 64 MB buffer cap) must surface journal.Stats.
// TailError through store.Stats().Disk — the same document /v1/stats
// serves — not be silently folded into the Corrupt count.
func TestTailErrorPropagates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.jsonl")
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Fsync = false
	if err := j.Append(cellN(1), recN(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'x'}, 1<<20)
	for i := 0; i < 65; i++ { // one 65 MB line, no newline
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	s, err := store.Open(path)
	if err != nil {
		t.Fatalf("tolerant open must survive an unreadable tail: %v", err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Disk.TailError == "" {
		t.Fatalf("store stats hide the journal tail error: %+v", st.Disk)
	}
	if st.Disk.Loaded != 1 {
		t.Fatalf("entries before the bad tail must load: loaded %d, want 1", st.Disk.Loaded)
	}
}
