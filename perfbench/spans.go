package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// cell or request share an id; parent is the index of the enclosing span,
// or -1.
type span struct {
	name   string
	track  string
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	parent int
	id     int64
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, so untraced code paths call it freely.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name, track string, parent int, id int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, track: track, start: time.Since(r.epoch), parent: parent, id: id})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere.
func (r *recorder) add(name, track string, start, end time.Time, parent int, id int64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, track: track,
		start: start.Sub(r.epoch), end: end.Sub(r.epoch), parent: parent, id: id})
	return len(r.spans) - 1
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// chromeEvent is one Chrome trace_event record: a complete event ("X") or
// a thread-name metadata event ("M").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON, one track
// (thread) per worker, client or campaign, so the file opens in Perfetto.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()

	tids := map[string]int{}
	var events []chromeEvent
	for i, s := range spans {
		tid, ok := tids[s.track]
		if !ok {
			tid = len(tids) + 1
			tids[s.track] = tid
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.track}})
		}
		end := s.end
		if end < s.start {
			end = s.start // never closed: a failed call
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: tid,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent, "id": s.id}})
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
