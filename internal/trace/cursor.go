package trace

import "repro/internal/energy"

// Cursor consumes a Source incrementally. The simulation engine uses it in
// two modes: Harvest integrates incoming energy over an execution interval,
// and ChargeUntil fast-forwards through a power-off period until the
// capacitor reaches a target voltage.
type Cursor struct {
	src       Source
	remaining int64
	power     float64
}

// NewCursor returns a cursor at the start of src's timeline.
func NewCursor(src Source) *Cursor {
	src.Reset()
	return &Cursor{src: src}
}

func (c *Cursor) refill() {
	for c.remaining <= 0 {
		c.remaining, c.power = c.src.Next()
	}
}

// Power returns the instantaneous harvested power.
func (c *Cursor) Power() float64 {
	c.refill()
	return c.power
}

// SegmentRemaining returns the nanoseconds left in the current
// piecewise-constant segment — the window over which Power() is exact.
// The simulation engine sizes its batched accounting epochs to stay
// inside this window so its harvest-rate bound holds.
func (c *Cursor) SegmentRemaining() int64 {
	c.refill()
	return c.remaining
}

// Harvest advances the timeline by dt nanoseconds and returns the energy
// harvested over it.
func (c *Cursor) Harvest(dt int64) float64 {
	var e float64
	for dt > 0 {
		c.refill()
		step := dt
		if step > c.remaining {
			step = c.remaining
		}
		e += c.power * float64(step) * 1e-9
		c.remaining -= step
		dt -= step
	}
	return e
}

// ChargeUntil advances the timeline while the system is off, charging cap
// (net of the sleep draw pSleep) until it reaches targetV. It returns the
// elapsed off-time. If maxNs elapses first the charge attempt is abandoned
// and ok is false — the engine reports stagnation, matching an energy
// source too weak for forward progress (Section 4.1, "Forward Progress").
// Sleep draw is attributed to the ledger.
func (c *Cursor) ChargeUntil(cap *energy.Capacitor, targetV, pSleep float64, maxNs int64, led *energy.Ledger) (elapsed int64, ok bool) {
	for elapsed < maxNs {
		if cap.V() >= targetV {
			return elapsed, true
		}
		c.refill()
		step := c.remaining
		if elapsed+step > maxNs {
			step = maxNs - elapsed
		}
		net := c.power - pSleep
		need := cap.EnergyAt(targetV) - cap.Energy()
		if net > 0 {
			// Will the target be reached inside this segment?
			dt := int64(need / net * 1e9)
			if dt < step {
				if dt < 1 {
					dt = 1
				}
				step = dt
			}
		}
		sec := float64(step) * 1e-9
		led.Sleep += pSleep * sec
		cap.Draw(pSleep * sec)
		cap.Add(c.power * sec)
		c.remaining -= step
		elapsed += step
	}
	return elapsed, cap.V() >= targetV
}
