package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// MemorySink accumulates events in memory — the sink for tests and for
// in-process analysis.
type MemorySink struct {
	Events []Event
}

func (m *MemorySink) WriteEvents(events []Event) error {
	m.Events = append(m.Events, events...)
	return nil
}

func (m *MemorySink) Close() error { return nil }

// DiscardSink drops every event — the sink for overhead benchmarks of
// the enabled path.
type DiscardSink struct{}

func (DiscardSink) WriteEvents([]Event) error { return nil }
func (DiscardSink) Close() error              { return nil }

// JSONLSink streams events as one JSON object per line. The encoding is
// hand-rolled over a reused scratch buffer so an enabled trace does not
// allocate per event, and field order is fixed so identical runs produce
// byte-identical streams.
type JSONLSink struct {
	w       *bufio.Writer
	scratch []byte
}

// NewJSONLSink returns a sink writing JSON lines to w. The caller owns
// w's underlying file; Close flushes but does not close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 64<<10)}
}

func (s *JSONLSink) WriteEvents(events []Event) error {
	for i := range events {
		s.scratch = AppendJSONL(s.scratch[:0], &events[i])
		if _, err := s.w.Write(s.scratch); err != nil {
			return err
		}
	}
	return nil
}

func (s *JSONLSink) Close() error { return s.w.Flush() }

// AppendJSONL appends e's JSONL encoding (including the trailing
// newline) to dst and returns the extended slice.
func AppendJSONL(dst []byte, e *Event) []byte {
	spec := &kindSpecs[e.Kind]
	dst = append(dst, `{"ev":"`...)
	dst = append(dst, spec.name...)
	dst = append(dst, `","ns":`...)
	dst = strconv.AppendInt(dst, e.Now, 10)
	if spec.a != "" {
		dst = appendIntField(dst, spec.a, e.A)
	}
	if spec.b != "" {
		dst = appendIntField(dst, spec.b, e.B)
	}
	if spec.c != "" {
		dst = appendIntField(dst, spec.c, e.C)
	}
	if spec.f != "" {
		dst = append(dst, ',', '"')
		dst = append(dst, spec.f...)
		dst = append(dst, '"', ':')
		// Shortest representation that round-trips exactly, so parsing a
		// stream reconstructs the recorded events bit-for-bit.
		dst = strconv.AppendFloat(dst, e.F, 'g', -1, 64)
	}
	return append(dst, '}', '\n')
}

func appendIntField(dst []byte, name string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return strconv.AppendInt(dst, v, 10)
}

// WriteJSONL writes events as a JSONL stream.
func WriteJSONL(w io.Writer, events []Event) error {
	s := NewJSONLSink(w)
	if err := s.WriteEvents(events); err != nil {
		return err
	}
	return s.Close()
}

// parseJSONLEvent decodes one JSONL line into an Event.
func parseJSONLEvent(line []byte) (Event, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return Event{}, err
	}
	var name string
	if err := json.Unmarshal(fields["ev"], &name); err != nil {
		return Event{}, fmt.Errorf("missing ev: %w", err)
	}
	kind := KindByName(name)
	if kind == EvNone {
		return Event{}, fmt.Errorf("unknown event %q", name)
	}
	e := Event{Kind: kind}
	spec := &kindSpecs[kind]
	getInt := func(name string, dst *int64) error {
		if name == "" {
			return nil
		}
		if msg, ok := fields[name]; ok {
			return json.Unmarshal(msg, dst)
		}
		return nil
	}
	if err := getInt("ns", &e.Now); err != nil {
		return Event{}, err
	}
	if err := getInt(spec.a, &e.A); err != nil {
		return Event{}, err
	}
	if err := getInt(spec.b, &e.B); err != nil {
		return Event{}, err
	}
	if err := getInt(spec.c, &e.C); err != nil {
		return Event{}, err
	}
	if spec.f != "" {
		if msg, ok := fields[spec.f]; ok {
			if err := json.Unmarshal(msg, &e.F); err != nil {
				return Event{}, err
			}
		}
	}
	return e, nil
}

// ReadJSONL parses a JSONL event stream back into events — the inverse
// of the JSONL sink, used by cmd/sweeptrace. Unknown event names are an
// error so schema drift is caught loudly.
func ReadJSONL(r io.Reader) ([]Event, error) {
	events, _, err := readJSONL(r, true)
	return events, err
}

// ReadJSONLTolerant is ReadJSONL for streams that may end (or be damaged)
// mid-line — the normal state of a trace whose recorder was killed. Bad
// lines are skipped and counted instead of failing the whole read.
func ReadJSONLTolerant(r io.Reader) (events []Event, skipped int, err error) {
	return readJSONL(r, false)
}

func readJSONL(r io.Reader, strict bool) ([]Event, int, error) {
	var out []Event
	skipped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		e, err := parseJSONLEvent(line)
		if err != nil {
			if strict {
				return nil, 0, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
			}
			skipped++
			continue
		}
		out = append(out, e)
	}
	return out, skipped, sc.Err()
}
