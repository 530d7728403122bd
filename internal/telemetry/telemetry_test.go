package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: EvRegionStart, Now: 0, A: 1},
		{Kind: EvOutageBegin, Now: 1500, A: 1, F: 1.9},
		{Kind: EvRestore, Now: 2500, A: 42, B: 300},
		{Kind: EvOutageEnd, Now: 2800, A: 1, B: 1000, F: 4.93},
		{Kind: EvBackup, Now: 3000, A: 77, B: 250},
		{Kind: EvRegionCommit, Now: 4000, A: 1, B: 12, C: 3},
		{Kind: EvSweepBegin, Now: 4000, A: 1, B: 5},
		{Kind: EvRegionStart, Now: 4100, A: 2},
		{Kind: EvSweepEnd, Now: 4700, A: 1, B: 5},
		{Kind: EvDirtyEvict, Now: 5000, A: 0x2040, B: 2},
		{Kind: EvCkptStore, Now: 5100, A: 3},
		{Kind: EvSavePC, Now: 5200, A: 99},
		{Kind: EvRedoDrain, Now: 5300, A: 2, B: 4},
		{Kind: EvHalt, Now: 6000, A: 123456},
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Emit(EvHalt, 1, 2, 3, 4, 5)
	if err := tr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("nil Err: %v", err)
	}
}

func TestNilTracerEmitAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvBackup, 10, 1, 2, 3, 4.5)
	})
	if allocs != 0 {
		t.Fatalf("nil Emit allocates %v per call", allocs)
	}
}

func TestTracerFlushOnFillAndClose(t *testing.T) {
	sink := &MemorySink{}
	tr := NewTracer(sink, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(EvBackup, int64(i), int64(i), 0, 0, 0)
	}
	// Capacity 4 → two full flushes so far, 2 events still buffered.
	if got := len(sink.Events); got != 8 {
		t.Fatalf("before close: %d events flushed, want 8", got)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(sink.Events); got != 10 {
		t.Fatalf("after close: %d events, want 10", got)
	}
	for i, e := range sink.Events {
		if e.Now != int64(i) {
			t.Fatalf("event %d out of order: Now=%d", i, e.Now)
		}
	}
}

type failSink struct{ n int }

func (f *failSink) WriteEvents([]Event) error { f.n++; return errors.New("disk full") }
func (f *failSink) Close() error              { return nil }

func TestTracerLatchesSinkError(t *testing.T) {
	sink := &failSink{}
	tr := NewTracer(sink, 2)
	for i := 0; i < 10; i++ {
		tr.Emit(EvBackup, int64(i), 0, 0, 0, 0)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close did not surface sink error")
	}
	if sink.n != 1 {
		t.Fatalf("sink written %d times after error, want 1", sink.n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	// Every line must be valid standalone JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v\n%s", i+1, err, line)
		}
		if _, ok := m["ev"]; !ok {
			t.Fatalf("line %d missing ev: %s", i+1, line)
		}
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got[i], events[i])
		}
	}
}

func TestReadJSONLUnknownEvent(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"ev":"no.such.event","ns":1}` + "\n"))
	if err == nil {
		t.Fatal("unknown event name accepted")
	}
}

func TestKindNamesBijective(t *testing.T) {
	seen := map[string]bool{}
	for k := EvNone + 1; k < numKinds; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate wire name %q", name)
		}
		seen[name] = true
		if KindByName(name) != k {
			t.Fatalf("KindByName(%q) != %v", name, k)
		}
	}
}

func TestChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleEvents()); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TsUs  float64 `json:"ts"`
			DurUs float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	counts := map[string]int{}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		counts[e.Phase]++
		if e.Phase == "X" {
			spans[e.Name] = true
			if e.DurUs < 0 {
				t.Fatalf("span %q has negative duration %v", e.Name, e.DurUs)
			}
		}
	}
	if counts["M"] != 4 {
		t.Fatalf("want 4 thread_name metadata events, got %d", counts["M"])
	}
	for _, want := range []string{"outage 1", "region 1", "sweep 1", "backup", "restore"} {
		if !spans[want] {
			t.Fatalf("missing expected span %q (have %v)", want, spans)
		}
	}
	// region 2 never commits (halt) — must still be closed as a span.
	if !spans["region 2"] {
		t.Fatal("dangling region 2 not closed")
	}
	if counts["i"] == 0 {
		t.Fatal("no instant events exported")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewSnapshot()
	a.Counters["runs"] = 1
	a.Counters["stores"] = 40
	a.Gauges["time_ns"] = 100
	a.Hists["sizes"] = stats.NewHist(8)
	a.Hists["sizes"].Add(3)
	a.Hists["sizes"].Add(5)

	b := NewSnapshot()
	b.Counters["runs"] = 1
	b.Counters["misses"] = 7
	b.Gauges["time_ns"] = 50
	b.Hists["sizes"] = stats.NewHist(8)
	b.Hists["sizes"].Add(5)
	b.Hists["only_b"] = stats.NewHist(8)
	b.Hists["only_b"].Add(1)

	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Counters["runs"] != 2 || a.Counters["stores"] != 40 || a.Counters["misses"] != 7 {
		t.Fatalf("counter merge wrong: %v", a.Counters)
	}
	if a.Gauges["time_ns"] != 150 {
		t.Fatalf("gauge merge wrong: %v", a.Gauges)
	}
	if a.Hists["sizes"].N != 3 {
		t.Fatalf("hist merge wrong: N=%d", a.Hists["sizes"].N)
	}
	// A histogram new to the accumulator is copied in, not aliased.
	b.Hists["only_b"].Add(2)
	if h := a.Hists["only_b"]; h.N != 1 || h.Buckets[2] != 0 {
		t.Fatal("merged snapshot aliases its argument's histogram")
	}
}

func TestSnapshotMergeMismatchedHists(t *testing.T) {
	a := NewSnapshot()
	a.Hists["h"] = stats.NewHist(4)
	a.Hists["h"].Add(2)
	a.Hists["h"].Add(9) // overflow in the 4-bucket histogram

	b := NewSnapshot()
	b.Hists["h"] = stats.NewHist(16)
	b.Hists["h"].Add(9)

	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge with mismatched buckets: %v", err)
	}
	h := a.Hists["h"]
	if want := len(stats.NewHist(16).Buckets); len(h.Buckets) != want {
		t.Fatalf("merged histogram has %d buckets, want %d", len(h.Buckets), want)
	}
	if h.N != 3 {
		t.Fatalf("merged N=%d, want 3", h.N)
	}
	// The 9 sampled before growth stays in overflow; the 9 sampled in the
	// 16-bucket histogram is a real bucket.
	if h.Overflow != 1 {
		t.Fatalf("merged overflow=%d, want 1", h.Overflow)
	}
	// b must be untouched by the merge.
	if len(b.Hists["h"].Buckets) != len(stats.NewHist(16).Buckets) || b.Hists["h"].N != 1 {
		t.Fatal("Merge mutated its argument")
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

func TestSnapshotWriteText(t *testing.T) {
	s := NewSnapshot()
	s.Counters["b"] = 2
	s.Counters["a"] = 1
	s.Gauges["g"] = 1.5
	s.Hists["h"] = stats.NewHist(4)
	s.Hists["h"].Add(1)
	var buf bytes.Buffer
	if err := s.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	ia, ib := strings.Index(out, "counter a"), strings.Index(out, "counter b")
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("counters missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, "gauge   g") || !strings.Contains(out, "hist    h") {
		t.Fatalf("gauge/hist lines missing:\n%s", out)
	}
}
