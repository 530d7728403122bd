// Package telemetry is the observability layer of the simulator: a typed
// event tracer, metrics snapshots, and exporters.
//
// The tracer answers "when and why" questions the aggregate counters in
// sim.Result cannot: the exact sequence of power outages, JIT backups,
// restores, region commits, persist-buffer sweeps, and dirty evictions
// that produced a number. Events are fixed-size structs collected into a
// ring buffer and flushed to a pluggable Sink (JSONL, Chrome trace_event,
// in-memory). Tracing is off by default and free when off: every emit
// site holds a possibly-nil *Tracer, and Emit on a nil receiver returns
// immediately without allocating, so the disabled path costs one branch.
//
// A Snapshot names sim.Result's counter fields: counters, gauges, and
// histograms in plain maps, filled directly by their single owner (see
// sim.Result.Metrics) and merged across the parallel runs of an
// experiment matrix (internal/exp). Live counters are not kept here: each
// stays in the typed stats of the component that makes it, and a
// /metrics endpoint renders those stats into a fresh Snapshot per scrape.
package telemetry

// EventKind identifies what happened. The zero value is reserved so a
// zeroed Event is recognisably invalid.
type EventKind uint8

const (
	EvNone EventKind = iota
	// EvOutageBegin marks a power failure: A = outage index (1-based),
	// F = capacitor voltage at the failure instant.
	EvOutageBegin
	// EvOutageEnd marks the end of recovery, after recharge and restore:
	// A = outage index, B = total recharge ns, F = restored voltage.
	EvOutageEnd
	// EvBackup is a JIT checkpoint: A = PC at backup, B = backup cost ns.
	EvBackup
	// EvRestore is a post-outage restore: A = resume PC, B = restore cost ns.
	EvRestore
	// EvRegionStart marks a region claiming a persist buffer: A = region
	// sequence number.
	EvRegionStart
	// EvRegionCommit marks a region.end boundary: A = region sequence,
	// B = dynamic stores executed in the region, C = dirty lines flushed.
	EvRegionCommit
	// EvSweepBegin marks a persist-buffer seal (s-phase1 start): A =
	// region sequence, B = buffer entries to drain.
	EvSweepBegin
	// EvSweepEnd marks the s-phase2 DMA completion: A = region sequence,
	// B = entries drained. Now is the logical completion time (Phase2End),
	// which may precede the emission point in stream order.
	EvSweepEnd
	// EvDirtyEvict is a dirty cacheline leaving the cache mid-region:
	// A = line address, B = region sequence that dirtied it (0 for
	// schemes without regions).
	EvDirtyEvict
	// EvCkptStore is a compiler-inserted ckpt.st: A = register index.
	EvCkptStore
	// EvSavePC is a compiler-inserted save.pc: A = the PC value stored.
	EvSavePC
	// EvRedoDrain is a (1,0) recovery redo of a sweep drain: A = region
	// sequence, B = entries re-drained.
	EvRedoDrain
	// EvHalt terminates the stream: A = instructions executed.
	EvHalt

	numKinds
)

// Event is one fixed-size telemetry record. Now is simulation time in
// nanoseconds; the meaning of A, B, C, and F depends on Kind (documented
// on each kind constant). Fixed size and pointer-free so the ring buffer
// never allocates per event.
type Event struct {
	Kind    EventKind
	Now     int64
	A, B, C int64
	F       float64
}

// kindSpec names a kind and its used argument fields for the JSONL
// schema; an empty field name means the argument is unused.
type kindSpec struct {
	name       string
	a, b, c, f string
}

var kindSpecs = [numKinds]kindSpec{
	EvOutageBegin:  {name: "outage.begin", a: "outage", f: "v"},
	EvOutageEnd:    {name: "outage.end", a: "outage", b: "charge_ns", f: "v"},
	EvBackup:       {name: "backup", a: "pc", b: "cost_ns"},
	EvRestore:      {name: "restore", a: "pc", b: "cost_ns"},
	EvRegionStart:  {name: "region.start", a: "region"},
	EvRegionCommit: {name: "region.commit", a: "region", b: "stores", c: "flushed"},
	EvSweepBegin:   {name: "sweep.begin", a: "region", b: "entries"},
	EvSweepEnd:     {name: "sweep.end", a: "region", b: "entries"},
	EvDirtyEvict:   {name: "evict.dirty", a: "addr", b: "region"},
	EvCkptStore:    {name: "ckpt.store", a: "reg"},
	EvSavePC:       {name: "save.pc", a: "pc"},
	EvRedoDrain:    {name: "redo.drain", a: "region", b: "entries"},
	EvHalt:         {name: "halt", a: "executed"},
}

// String returns the kind's wire name.
func (k EventKind) String() string {
	if int(k) < len(kindSpecs) && kindSpecs[k].name != "" {
		return kindSpecs[k].name
	}
	return "unknown"
}

// KindByName resolves a wire name back to its kind, or EvNone.
func KindByName(name string) EventKind {
	for k, s := range kindSpecs {
		if s.name == name {
			return EventKind(k)
		}
	}
	return EvNone
}

// Sink receives flushed event batches. Implementations must not retain
// the slice past the call.
type Sink interface {
	WriteEvents(events []Event) error
	Close() error
}

// defaultBufferCap is the tracer's ring capacity between flushes.
const defaultBufferCap = 4096

// Tracer collects events into a fixed buffer and flushes them to a sink
// when the buffer fills and at Close. A nil *Tracer is the disabled
// tracer: Emit is a no-op, so emit sites never branch on a flag.
type Tracer struct {
	buf  []Event
	sink Sink
	err  error
}

// NewTracer returns a tracer flushing to sink. bufCap <= 0 selects the
// default capacity.
func NewTracer(sink Sink, bufCap int) *Tracer {
	if bufCap <= 0 {
		bufCap = defaultBufferCap
	}
	return &Tracer{buf: make([]Event, 0, bufCap), sink: sink}
}

// Enabled reports whether the tracer records events; callers may use it
// to skip expensive argument preparation.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Safe on a nil tracer (no-op). The first sink
// error latches and suppresses further writes.
func (t *Tracer) Emit(kind EventKind, now int64, a, b, c int64, f float64) {
	if t == nil || t.err != nil {
		return
	}
	t.buf = append(t.buf, Event{Kind: kind, Now: now, A: a, B: b, C: c, F: f})
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

func (t *Tracer) flush() {
	if len(t.buf) == 0 || t.err != nil {
		return
	}
	t.err = t.sink.WriteEvents(t.buf)
	t.buf = t.buf[:0]
}

// Close flushes buffered events and closes the sink. Safe on nil.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.flush()
	if err := t.sink.Close(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Err returns the first error the tracer or its sink reported.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}
