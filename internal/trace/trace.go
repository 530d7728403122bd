// Package trace synthesizes the ambient-power traces the evaluation runs
// under. The paper uses two real RF traces (RFHome, RFOffice) collected by
// NVPsim plus solar and thermal traces; those recordings are not
// redistributable, so this package generates seeded synthetic equivalents
// with the properties the experiments depend on: RF is bursty and weak,
// solar varies slowly around a higher mean, thermal is nearly constant.
// A (profile, seed) pair always reproduces the identical power timeline,
// so every scheme sees the same energy environment.
package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Source produces a power trace as a sequence of piecewise-constant
// segments.
type Source interface {
	Name() string
	// Reset rewinds the source to the start of its timeline.
	Reset()
	// Next returns the next segment: a duration in nanoseconds and the
	// harvested power in watts over it.
	Next() (durNs int64, watts float64)
}

// Profile names a built-in trace generator.
type Profile int

const (
	RFHome Profile = iota
	RFOffice
	Solar
	Thermal
)

var profileNames = map[Profile]string{
	RFHome: "RFHome", RFOffice: "RFOffice", Solar: "solar", Thermal: "thermal",
}

func (p Profile) String() string {
	if s, ok := profileNames[p]; ok {
		return s
	}
	return fmt.Sprintf("profile(%d)", int(p))
}

// Profiles lists all built-in profiles in evaluation order.
func Profiles() []Profile { return []Profile{RFOffice, RFHome, Solar, Thermal} }

// ParseProfile resolves a profile's String form (e.g. "RFHome") back to
// the Profile. It does not cover the outage-free case — callers decide
// what name (if any) selects "no supply trace".
func ParseProfile(name string) (Profile, bool) {
	for p, n := range profileNames {
		if n == name {
			return p, true
		}
	}
	return 0, false
}

// New returns a seeded source for the profile.
func New(p Profile, seed int64) Source {
	switch p {
	case RFHome:
		// Home RF: sparse, longer bursts from a nearby transmitter.
		return &rf{name: "RFHome", stream: stream{seed: seed}, p: rfParams{
			meanOnNs: 2_000_000, meanOffNs: 5_000_000,
			pMin: 0.4e-3, pMax: 1.6e-3, idle: 6e-6,
		}}
	case RFOffice:
		// Office RF: denser but weaker bursts from many sources.
		return &rf{name: "RFOffice", stream: stream{seed: seed}, p: rfParams{
			meanOnNs: 900_000, meanOffNs: 2_200_000,
			pMin: 0.3e-3, pMax: 1.2e-3, idle: 8e-6,
		}}
	case Solar:
		return &solar{stream: stream{seed: seed}}
	case Thermal:
		return &thermal{stream{seed: seed}}
	}
	panic("trace: unknown profile " + p.String())
}

// NewShared returns New(p, seed).
//
// Deprecated: use New. A timeline is a pure function of (profile, seed),
// so there is no shared copy to return.
func NewShared(p Profile, seed int64) Source { return New(p, seed) }

// FlushSharedTapes does nothing.
//
// Deprecated: no cache of timelines is kept, so there is nothing to
// flush.
func FlushSharedTapes() {}

// stream is a generator's random sequence, seeded from seed on the first
// draw after construction or after a Reset clears rng. Seeding math/rand
// costs about 12 µs, far more than generating a run's segments, and
// NewCursor resets every source before its first segment, so seeding in
// the constructor as well would pay it twice.
type stream struct {
	seed int64
	rng  *rand.Rand
}

// rand returns the generator, seeding it on the first draw.
func (s *stream) rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// rfParams parameterizes the bursty RF generator.
type rfParams struct {
	meanOnNs  float64 // mean burst duration
	meanOffNs float64 // mean gap duration
	pMin      float64 // burst power range (watts)
	pMax      float64
	idle      float64 // trickle power between bursts
}

type rf struct {
	stream
	name string
	p    rfParams
	on   bool
}

func (s *rf) Name() string { return s.name }

func (s *rf) Reset() {
	s.rng = nil
	s.on = false
}

// expDur draws an exponential duration with the given mean, clamped to
// avoid degenerate zero-length segments.
func expDur(rng *rand.Rand, mean float64) int64 {
	d := int64(rng.ExpFloat64() * mean)
	if d < 1000 {
		d = 1000
	}
	return d
}

func (s *rf) Next() (int64, float64) {
	rng := s.rand()
	s.on = !s.on
	if s.on {
		dur := expDur(rng, s.p.meanOnNs)
		pow := s.p.pMin + rng.Float64()*(s.p.pMax-s.p.pMin)
		return dur, pow
	}
	return expDur(rng, s.p.meanOffNs), s.p.idle
}

// solar varies slowly (cloud shadowing) around a healthy mean: segments of
// a few ms whose power follows a slow sinusoid plus noise.
type solar struct {
	stream
	t float64
}

func (s *solar) Name() string { return "solar" }
func (s *solar) Reset() {
	s.rng = nil
	s.t = 0
}

func (s *solar) Next() (int64, float64) {
	const segNs = 2_000_000
	s.t += segNs
	base := 0.55e-3
	swing := 0.25e-3 * math.Sin(2*math.Pi*s.t/(500*segNs))
	noise := (s.rand().Float64() - 0.5) * 0.1e-3
	p := base + swing + noise
	if p < 0.05e-3 {
		p = 0.05e-3
	}
	return segNs, p
}

// thermal is a weak, nearly constant source (body-heat TEG).
type thermal struct{ stream }

func (s *thermal) Name() string { return "thermal" }
func (s *thermal) Reset()       { s.rng = nil }

func (s *thermal) Next() (int64, float64) {
	return 5_000_000, 0.40e-3 + (s.rand().Float64()-0.5)*0.02e-3
}

// Constant is an always-on source, useful for tests and for modelling a
// bench supply.
type Constant struct {
	P     float64
	Label string
}

func (c *Constant) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "constant"
}
func (c *Constant) Reset() {}
func (c *Constant) Next() (int64, float64) {
	return 1_000_000_000, c.P
}
