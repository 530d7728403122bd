package journal

import (
	"path/filepath"
	"testing"
	"time"
)

// TestReadsDoNotWaitOnAppends: an append holds the write lock across its
// file write and fsync, and every store hit reads the index, so a read
// that waited on that lock would stall behind each fsync. With the write
// lock held, Lookup, Stats and Len must still return.
func TestReadsDoNotWaitOnAppends(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "cells.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.Fsync = false
	c := Cell{Workload: "sha", Scale: 1, Scheme: "NVP", Profile: "RFHome", Seed: 1}
	if err := j.Append(c, &Record{NVMHash: "00"}); err != nil {
		t.Fatal(err)
	}

	j.wmu.Lock()
	defer j.wmu.Unlock()
	type reads struct {
		found bool
		st    Stats
		n     int
	}
	got := make(chan reads, 1)
	go func() {
		_, found := j.Lookup(c)
		got <- reads{found, j.Stats(), j.Len()}
	}()
	select {
	case r := <-got:
		if !r.found || r.st.Appends != 1 || r.n != 1 {
			t.Fatalf("reads under the write lock: found=%v stats=%+v len=%d", r.found, r.st, r.n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Lookup, Stats or Len waited on the write lock")
	}
}
