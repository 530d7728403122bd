package service

import (
	"math"
	"testing"
	"time"
)

// TestBackoffBounds: the jittered backoff stays inside (0, cap] for
// every retry index, including ones deep enough to overflow a naive
// shift, with and without a cap, and a zero Base falls back to a sane
// default.
func TestBackoffBounds(t *testing.T) {
	for _, p := range []RetryPolicy{
		{Attempts: 8, Base: 10 * time.Millisecond, Cap: 80 * time.Millisecond},
		{Attempts: 100, Base: 100 * time.Millisecond},
	} {
		limit := p.Cap
		if limit == 0 {
			limit = math.MaxInt64
		}
		for _, n := range []int{0, 1, 2, 3, 7, 36, 37, 40, 63, 64, 100} {
			for i := 0; i < 50; i++ {
				d := p.backoff(n)
				if d <= 0 || d > limit {
					t.Fatalf("%+v: backoff(%d) = %v outside (0, %v]", p, n, d, limit)
				}
			}
		}
	}
	z := RetryPolicy{}
	if d := z.backoff(0); d <= 0 || d > 50*time.Millisecond {
		t.Fatalf("zero-policy backoff(0) = %v", d)
	}
}
