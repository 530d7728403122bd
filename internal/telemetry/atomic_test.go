package telemetry

import (
	"sync"
	"testing"
)

// TestAtomicCounterConcurrent hammers LiveRegistry counters from many
// goroutines while a reader snapshots them. Under -race this enforces
// that the shared metric types — unlike a Snapshot's maps — really are
// safe for concurrent use.
func TestAtomicCounterConcurrent(t *testing.T) {
	r := NewLiveRegistry()
	const workers, perWorker = 8, 1000

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent reader: snapshot while writers mutate
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()

	var writers sync.WaitGroup
	for i := 0; i < workers; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for range perWorker {
				r.Counter("cells.done").Add(1)
			}
			r.Counter("workers.started").Add(1)
		}()
	}
	writers.Wait()
	close(stop)
	<-readerDone

	if got := r.Counter("cells.done").Value(); got != workers*perWorker {
		t.Fatalf("cells.done = %d, want %d", got, workers*perWorker)
	}
	if got := r.Counter("workers.started").Value(); got != workers {
		t.Fatalf("workers.started = %d, want %d", got, workers)
	}
	snap := r.Snapshot()
	if snap.Counters["cells.done"] != workers*perWorker {
		t.Fatalf("snapshot cells.done = %d", snap.Counters["cells.done"])
	}
	if len(snap.Counters) != 2 || len(snap.Gauges) != 0 {
		t.Fatalf("snapshot = %+v, want exactly the two counters", snap)
	}
}

// TestSnapshotSingleOwnerHandoff pins the legal cross-goroutine flow for
// the unsynchronized Snapshot: each goroutine fills a private snapshot
// and publishes it over a channel, and one goroutine merges. Under -race
// this passes precisely because the hand-off is sequenced by the channel;
// writing one snapshot from two goroutines would trip the race detector
// (and is forbidden by the single-owner rule documented on Snapshot).
func TestSnapshotSingleOwnerHandoff(t *testing.T) {
	snaps := make(chan *Snapshot, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n uint64) {
			defer wg.Done()
			s := NewSnapshot() // private to this goroutine
			s.Counters["sim.instrs"] = n
			s.Gauges["sim.time_ns"] = float64(n)
			snaps <- s // publish: ownership of the data ends here
		}(uint64(i + 1))
	}
	wg.Wait()
	close(snaps)
	total := NewSnapshot()
	for s := range snaps {
		if err := total.Merge(s); err != nil {
			t.Fatal(err)
		}
	}
	if got := total.Counters["sim.instrs"]; got != 1+2+3+4 {
		t.Fatalf("merged sim.instrs = %d, want 10", got)
	}
}
