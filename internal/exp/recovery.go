package exp

import (
	"repro/internal/arch"
	"repro/internal/trace"
)

// RecoveryResult quantifies Section 2.2's claim that ReplayCache's
// sequential store replay makes its recovery slow, against the other
// schemes' restore paths.
type RecoveryResult struct {
	// AvgRestoreNs[kind] is the mean time per outage spent in the
	// scheme's restore work (register reload, cache refill, store
	// replay, buffer-drain redo) — recharge and propagation delays
	// excluded.
	AvgRestoreNs map[arch.Kind]float64
	// AvgReplayed is ReplayCache's mean replayed stores per outage.
	AvgReplayed float64
}

var recoveryKinds = []arch.Kind{arch.NVP, arch.NVSRAM, arch.NVSRAME, arch.ReplayCache, arch.SweepEmptyBit}

// Recovery measures per-outage restore latency under RFOffice.
func (c *Context) Recovery() (*RecoveryResult, error) {
	pr := trace.RFOffice
	m, err := c.runMatrix(recoveryKinds, &pr, c.Params, 1)
	if err != nil {
		return nil, err
	}
	r := &RecoveryResult{AvgRestoreNs: map[arch.Kind]float64{}}
	c.printf("Recovery latency per outage (RFOffice) — Section 2.2's slow-recovery claim\n")
	c.printf("%-14s %14s %16s\n", "scheme", "restore (us)", "replayed stores")
	var totReplay, totOut float64
	for _, k := range recoveryKinds {
		var restore, outs, replayed float64
		for _, n := range m.Names {
			res := m.Get(n, k)
			restore += float64(res.RestoreNs)
			outs += float64(res.Outages)
			replayed += float64(res.Arch.ReplayedStores)
		}
		if outs > 0 {
			r.AvgRestoreNs[k] = restore / outs
		}
		if k == arch.ReplayCache {
			totReplay, totOut = replayed, outs
		}
		c.printf("%-14v %14.2f %16.2f\n", k, r.AvgRestoreNs[k]/1e3, replayed/max(outs, 1))
	}
	if totOut > 0 {
		r.AvgReplayed = totReplay / totOut
	}
	c.printf("\n")
	return r, nil
}
