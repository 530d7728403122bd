package trace

import "testing"

// drainSeg pulls the first segment from a source.
func drainSeg(s Source) (int64, float64) { return s.Next() }

// setTapeCap sets the shared tape cache's cap and returns the previous
// one.
func setTapeCap(n int) int {
	tapesMu.Lock()
	defer tapesMu.Unlock()
	prev := tapeCap
	tapeCap = n
	return prev
}

// tapeCacheLen returns how many timelines the shared cache holds.
func tapeCacheLen() int {
	tapesMu.Lock()
	defer tapesMu.Unlock()
	return len(tapes)
}

func TestSharedTapeMatchesFresh(t *testing.T) {
	FlushSharedTapes()
	shared := NewShared(RFHome, 7)
	fresh := New(RFHome, 7)
	for i := 0; i < 1000; i++ {
		sd, sp := shared.Next()
		fd, fp := fresh.Next()
		if sd != fd || sp != fp {
			t.Fatalf("segment %d: shared (%d,%g) != fresh (%d,%g)", i, sd, sp, fd, fp)
		}
	}
}

func TestTapeCacheBounded(t *testing.T) {
	FlushSharedTapes()
	prev := setTapeCap(8)
	defer setTapeCap(prev)
	defer FlushSharedTapes()

	for seed := int64(1); seed <= 100; seed++ {
		NewShared(RFHome, seed)
		if n := tapeCacheLen(); n > 8 {
			t.Fatalf("cache grew to %d entries with cap 8", n)
		}
	}
	if n := tapeCacheLen(); n != 8 {
		t.Fatalf("cache holds %d entries after 100 inserts with cap 8, want 8", n)
	}
}

func TestTapeCacheLRUOrder(t *testing.T) {
	FlushSharedTapes()
	prev := setTapeCap(2)
	defer setTapeCap(prev)
	defer FlushSharedTapes()

	a := NewShared(Solar, 1) // cache: {1}
	NewShared(Solar, 2)      // cache: {1,2}
	NewShared(Solar, 1)      // touch 1 → LRU is 2
	NewShared(Solar, 3)      // evicts 2 → cache: {1,3}

	tapesMu.Lock()
	_, have1 := tapes[tapeKey{Solar, 1}]
	_, have2 := tapes[tapeKey{Solar, 2}]
	_, have3 := tapes[tapeKey{Solar, 3}]
	tapesMu.Unlock()
	if !have1 || have2 || !have3 {
		t.Fatalf("LRU kept wrong tapes: seed1=%v seed2=%v seed3=%v, want true/false/true", have1, have2, have3)
	}

	// An evicted timeline regenerates bit-identically.
	evicted := NewShared(Solar, 2)
	fresh := New(Solar, 2)
	for i := 0; i < 100; i++ {
		ed, ep := evicted.Next()
		fd, fp := fresh.Next()
		if ed != fd || ep != fp {
			t.Fatalf("segment %d after eviction: (%d,%g) != fresh (%d,%g)", i, ed, ep, fd, fp)
		}
	}

	// Replays handed out before the eviction keep working.
	if d, _ := drainSeg(a); d <= 0 {
		t.Fatalf("pre-eviction replay broke: dur %d", d)
	}
}
