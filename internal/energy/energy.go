// Package energy models the harvested-energy storage of an intermittent
// system: a small capacitor whose stored energy is E = ½CV², charged by a
// power trace and drained by execution, plus a ledger that attributes every
// consumed joule to a category for the Figure 13 breakdown.
package energy

import "math"

// Capacitor is the energy store. Stored energy is the state variable —
// Add and Draw are then plain additions with a clamp/floor, and the
// square root is paid only when a caller actually asks for the voltage.
// This matters because the simulation engine settles the capacitor on
// every accounting interval; see docs/PERFORMANCE.md.
type Capacitor struct {
	C    float64 // farads
	Vmax float64 // clamp voltage
	e    float64 // stored energy, joules
	emax float64 // energy at Vmax
}

// NewCapacitor returns a capacitor charged to vInit.
func NewCapacitor(c, vmax, vInit float64) *Capacitor {
	cap := &Capacitor{C: c, Vmax: vmax, emax: 0.5 * c * vmax * vmax}
	cap.SetVoltage(vInit)
	return cap
}

// V returns the current voltage.
func (c *Capacitor) V() float64 { return math.Sqrt(2 * c.e / c.C) }

// Energy returns the stored energy in joules.
func (c *Capacitor) Energy() float64 { return c.e }

// SetVoltage forces the voltage (used for initialization).
func (c *Capacitor) SetVoltage(v float64) {
	v = math.Min(v, c.Vmax)
	c.e = 0.5 * c.C * v * v
}

// Add charges the capacitor by j joules, clamping at Vmax. Returns the
// energy actually absorbed.
func (c *Capacitor) Add(j float64) float64 {
	if j <= 0 {
		return 0
	}
	e := c.e + j
	absorbed := j
	if e > c.emax {
		absorbed -= e - c.emax
		e = c.emax
	}
	c.e = e
	return absorbed
}

// Draw removes j joules, flooring at zero volts.
func (c *Capacitor) Draw(j float64) {
	e := c.e - j
	if e < 0 {
		e = 0
	}
	c.e = e
}

// EnergyAt returns the stored energy the capacitor would hold at voltage v.
func (c *Capacitor) EnergyAt(v float64) float64 { return 0.5 * c.C * v * v }

// Ledger attributes consumed energy to categories (joules).
type Ledger struct {
	Compute float64 // core execution incl. SRAM accesses
	NVM     float64 // demand NVM traffic
	Persist float64 // persist-buffer flush/drain traffic and clwb drains
	Backup  float64 // JIT backup events
	Restore float64 // restore events after reboot
	Sleep   float64 // recharge-wait monitor/leakage draw
}

// Total returns all consumed energy.
func (l *Ledger) Total() float64 {
	return l.Compute + l.NVM + l.Persist + l.Backup + l.Restore + l.Sleep
}

// NonCompute returns the energy consumed outside Compute: every field
// Total folds onto Compute. Like Total, it is monotone non-decreasing in
// each field; the interpreter's epoch watermarks rely on both (see
// cpu.Run).
func (l *Ledger) NonCompute() float64 {
	return l.NVM + l.Persist + l.Backup + l.Restore + l.Sleep
}
