package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace_event export: renders an event stream as a JSON object
// Perfetto and chrome://tracing load directly. Paired begin/end events
// become complete ("X") spans on per-component tracks, everything else
// becomes instant ("i") events on an auxiliary track:
//
//	tid 1 "power"    — outage spans (failure → restored)
//	tid 2 "regions"  — region spans (claim → commit)
//	tid 3 "sweeps"   — persist-buffer spans (seal → phase-2 DMA done)
//	tid 4 "events"   — backups, restores, evictions, checkpoint stores
//
// Timestamps are microseconds (the format's unit) derived from the
// simulation clock, so a 1 ms run renders as 1000 time units.

const (
	trackPower   = 1
	trackRegions = 2
	trackSweeps  = 3
	trackEvents  = 4
)

type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace renders events in Chrome trace_event format.
func WriteChromeTrace(w io.Writer, events []Event) error {
	tr := chromeTrace{DisplayTimeUnit: "ns"}
	for tid, name := range map[int]string{
		trackPower: "power", trackRegions: "regions",
		trackSweeps: "sweeps", trackEvents: "events",
	} {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": name},
		})
	}
	// Metadata order above comes from a map; sort for stable output.
	sort.Slice(tr.TraceEvents, func(i, j int) bool {
		return tr.TraceEvents[i].TID < tr.TraceEvents[j].TID
	})

	// Pair begin/end kinds by their identifying A argument.
	type spanKey struct {
		kind EventKind
		id   int64
	}
	open := map[spanKey]Event{}
	span := func(begin Event, endNs int64, tid int, name string, args map[string]any) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Phase: "X", TsUs: us(begin.Now),
			DurUs: us(endNs - begin.Now), PID: 1, TID: tid, Args: args,
		})
	}
	instant := func(e Event, name string, args map[string]any) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Phase: "i", TsUs: us(e.Now), PID: 1,
			TID: trackEvents, Scope: "t", Args: args,
		})
	}

	for _, e := range events {
		switch e.Kind {
		case EvOutageBegin:
			open[spanKey{EvOutageBegin, e.A}] = e
		case EvOutageEnd:
			if b, ok := open[spanKey{EvOutageBegin, e.A}]; ok {
				delete(open, spanKey{EvOutageBegin, e.A})
				span(b, e.Now, trackPower, fmt.Sprintf("outage %d", e.A), map[string]any{
					"v_fail": b.F, "v_restore": e.F, "charge_ns": e.B,
				})
			}
		case EvRegionStart:
			open[spanKey{EvRegionStart, e.A}] = e
		case EvRegionCommit:
			if b, ok := open[spanKey{EvRegionStart, e.A}]; ok {
				delete(open, spanKey{EvRegionStart, e.A})
				span(b, e.Now, trackRegions, fmt.Sprintf("region %d", e.A), map[string]any{
					"stores": e.B, "flushed": e.C,
				})
			}
		case EvSweepBegin:
			open[spanKey{EvSweepBegin, e.A}] = e
		case EvSweepEnd:
			if b, ok := open[spanKey{EvSweepBegin, e.A}]; ok {
				delete(open, spanKey{EvSweepBegin, e.A})
				span(b, e.Now, trackSweeps, fmt.Sprintf("sweep %d", e.A), map[string]any{
					"entries": e.B,
				})
			}
		case EvBackup:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "backup", Phase: "X", TsUs: us(e.Now), DurUs: us(e.B),
				PID: 1, TID: trackEvents, Args: map[string]any{"pc": e.A},
			})
		case EvRestore:
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "restore", Phase: "X", TsUs: us(e.Now), DurUs: us(e.B),
				PID: 1, TID: trackEvents, Args: map[string]any{"pc": e.A},
			})
		case EvDirtyEvict:
			instant(e, "evict", map[string]any{"addr": e.A, "region": e.B})
		case EvCkptStore:
			instant(e, "ckpt.st", map[string]any{"reg": e.A})
		case EvSavePC:
			instant(e, "save.pc", map[string]any{"pc": e.A})
		case EvRedoDrain:
			instant(e, "redo.drain", map[string]any{"region": e.A, "entries": e.B})
		case EvHalt:
			instant(e, "halt", map[string]any{"executed": e.A})
		}
	}
	// Regions or sweeps cut short by halt: close them at their begin time
	// so the trace stays loadable. Sorted so output is deterministic.
	var dangling []spanKey
	for k := range open {
		dangling = append(dangling, k)
	}
	sort.Slice(dangling, func(i, j int) bool {
		if dangling[i].kind != dangling[j].kind {
			return dangling[i].kind < dangling[j].kind
		}
		return dangling[i].id < dangling[j].id
	})
	for _, k := range dangling {
		b := open[k]
		switch k.kind {
		case EvRegionStart:
			span(b, b.Now, trackRegions, fmt.Sprintf("region %d", k.id), nil)
		case EvSweepBegin:
			span(b, b.Now, trackSweeps, fmt.Sprintf("sweep %d", k.id), nil)
		case EvOutageBegin:
			span(b, b.Now, trackPower, fmt.Sprintf("outage %d", k.id), nil)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(&tr)
}
