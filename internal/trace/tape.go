package trace

import "sync"

// Tape memoizes the segment sequence of a Source so that many cursors —
// across the schemes and figures of an experiment matrix — replay one
// timeline without regenerating it. Segments are materialized lazily, in
// order, exactly as the underlying source would have produced them, so a
// replay is indistinguishable from the original source.
type Tape struct {
	mu   sync.Mutex
	src  Source
	name string
	segs []tapeSeg
}

type tapeSeg struct {
	dur int64
	p   float64
}

// NewTape wraps src. The tape takes ownership: src must not be used
// directly afterwards.
func NewTape(src Source) *Tape {
	src.Reset()
	return &Tape{src: src, name: src.Name()}
}

// seg returns segment i, generating forward as needed.
func (t *Tape) seg(i int) tapeSeg {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.segs) <= i {
		d, p := t.src.Next()
		t.segs = append(t.segs, tapeSeg{d, p})
	}
	return t.segs[i]
}

// Replay returns a fresh Source positioned at the start of the timeline.
// Replays are cheap and safe to use concurrently with each other.
func (t *Tape) Replay() Source { return &tapeReplay{t: t} }

type tapeReplay struct {
	t   *Tape
	pos int
}

func (r *tapeReplay) Name() string { return r.t.name }
func (r *tapeReplay) Reset()       { r.pos = 0 }
func (r *tapeReplay) Next() (int64, float64) {
	s := r.t.seg(r.pos)
	r.pos++
	return s.dur, s.p
}

// Shared profile tapes: one memoized timeline per (profile, seed),
// process-wide. Experiment matrices run the same timeline across dozens
// of (workload, scheme) cells; sharing the tape means the synthetic
// generator runs once per timeline instead of once per cell.
//
// The cache is bounded: a Monte-Carlo seed sweep walks an unbounded seed
// space, and an unbounded map would pin every timeline ever replayed for
// the life of the process. Least-recently-used tapes are evicted once the
// cache exceeds its cap; an evicted timeline is simply regenerated (bit
// identically) if it is requested again. Replays handed out before an
// eviction keep their tape alive independently of the cache.
var (
	tapesMu   sync.Mutex
	tapes     = map[tapeKey]*Tape{}
	tapeOrder []tapeKey // least recently used first
	tapeCap   = 64
)

type tapeKey struct {
	p    Profile
	seed int64
}

// FlushSharedTapes drops every cached timeline. Outstanding replays keep
// working; subsequent NewShared calls regenerate from scratch.
func FlushSharedTapes() {
	tapesMu.Lock()
	defer tapesMu.Unlock()
	tapes = map[tapeKey]*Tape{}
	tapeOrder = tapeOrder[:0]
}

// touchLocked moves k to the most-recently-used end of the order.
func touchLocked(k tapeKey) {
	for i, o := range tapeOrder {
		if o == k {
			copy(tapeOrder[i:], tapeOrder[i+1:])
			tapeOrder[len(tapeOrder)-1] = k
			return
		}
	}
	tapeOrder = append(tapeOrder, k)
}

func evictLocked() {
	for len(tapes) > tapeCap {
		k := tapeOrder[0]
		tapeOrder = tapeOrder[1:]
		delete(tapes, k)
	}
}

// NewShared returns a source replaying the memoized (profile, seed)
// timeline — identical, segment for segment, to New(p, seed), but backed
// by a process-wide tape shared across all cursors of that timeline.
func NewShared(p Profile, seed int64) Source {
	k := tapeKey{p, seed}
	tapesMu.Lock()
	t := tapes[k]
	if t == nil {
		t = NewTape(New(p, seed))
		tapes[k] = t
	}
	touchLocked(k)
	evictLocked()
	tapesMu.Unlock()
	return t.Replay()
}
