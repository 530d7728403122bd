package trace

// Boundary coverage for the cursor primitives the batched-accounting
// engine leans on: zero-length and segment-spanning harvest intervals
// and the segment-remaining window.

import (
	"testing"

	"repro/internal/energy"
)

// steps is a deterministic two-segment repeating source: 1000 ns at 1 mW,
// then 500 ns at 2 mW.
type steps struct{ i int }

func (s *steps) Name() string { return "steps" }
func (s *steps) Reset()       { s.i = 0 }
func (s *steps) Next() (int64, float64) {
	s.i++
	if s.i%2 == 1 {
		return 1000, 1e-3
	}
	return 500, 2e-3
}

func TestHarvestZeroLength(t *testing.T) {
	c := NewCursor(&steps{})
	if e := c.Harvest(0); e != 0 {
		t.Fatalf("Harvest(0) = %g, want 0", e)
	}
	// A zero-length harvest must not advance the timeline.
	if got := c.Harvest(1000); got != 1e-3*1000e-9 {
		t.Fatalf("first segment after Harvest(0) = %g", got)
	}
}

func TestHarvestSpansSegments(t *testing.T) {
	// One call across both segments must equal the piecewise sum.
	whole := NewCursor(&steps{}).Harvest(1500)
	c := NewCursor(&steps{})
	parts := c.Harvest(1000) + c.Harvest(500)
	if whole != parts {
		t.Fatalf("spanning harvest %g != piecewise %g", whole, parts)
	}
	want := 1e-3*1000e-9 + 2e-3*500e-9
	if whole != want {
		t.Fatalf("harvest = %g, want %g", whole, want)
	}
}

func TestSegmentRemainingTracksConsumption(t *testing.T) {
	c := NewCursor(&steps{})
	if rem := c.SegmentRemaining(); rem != 1000 {
		t.Fatalf("fresh segment remaining = %d", rem)
	}
	c.Harvest(400)
	if rem := c.SegmentRemaining(); rem != 600 {
		t.Fatalf("after 400 ns, remaining = %d", rem)
	}
	c.Harvest(600)
	// Exactly exhausted: the next query must refill to the new segment.
	if rem, p := c.SegmentRemaining(), c.Power(); rem != 500 || p != 2e-3 {
		t.Fatalf("next segment = (%d, %g)", rem, p)
	}
}

func TestChargeUntilAlreadyCharged(t *testing.T) {
	cap := energy.NewCapacitor(470e-9, 3.5, 3.4)
	var led energy.Ledger
	elapsed, ok := NewCursor(&steps{}).ChargeUntil(cap, 3.3, 1e-6, 1e9, &led)
	if !ok || elapsed != 0 {
		t.Fatalf("ChargeUntil above target: elapsed=%d ok=%v", elapsed, ok)
	}
	if led.Sleep != 0 {
		t.Error("no time passed but sleep energy was charged")
	}
}
