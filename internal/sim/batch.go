package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/trace"
)

// BatchOptions configures one RunBatch call.
type BatchOptions struct {
	// Sources holds one power trace per lane (same length as the scheme
	// slice).
	Sources []trace.Source
	// Ctx carries Options.Ctx's semantics for every lane.
	Ctx context.Context
}

// RunBatch runs the linked program once per scheme, lane i drawing power
// from opt.Sources[i], each lane through Run. The schemes must be
// distinct instances of the same configuration (same Name and Params):
// lanes differ only in their power trace. It returns one Result and one
// error slot per lane (results[i] is meaningful even when errs[i] is
// non-nil, as with Run), plus a batch-level configuration error.
func RunBatch(l *ir.Linked, schemes []arch.Scheme, opt BatchOptions) ([]*Result, []error, error) {
	n := len(schemes)
	if n == 0 {
		return nil, nil, errors.New("sim: RunBatch needs at least one scheme")
	}
	if len(opt.Sources) != n {
		return nil, nil, fmt.Errorf("sim: RunBatch got %d schemes but %d sources", n, len(opt.Sources))
	}
	for i, src := range opt.Sources {
		if src == nil {
			return nil, nil, fmt.Errorf("sim: RunBatch source %d is nil", i)
		}
	}
	name, p0 := schemes[0].Name(), schemes[0].Params()
	for i, s := range schemes {
		if s.Name() != name {
			return nil, nil, fmt.Errorf("sim: RunBatch lane %d is %s, lane 0 is %s — lanes must share one configuration", i, s.Name(), name)
		}
		if s.Params() != p0 {
			return nil, nil, fmt.Errorf("sim: RunBatch lane %d params differ from lane 0 — lanes must share one configuration", i)
		}
		for j := 0; j < i; j++ {
			if schemes[j] == s {
				return nil, nil, fmt.Errorf("sim: RunBatch lanes %d and %d are the same scheme instance — each lane needs its own", j, i)
			}
		}
	}

	results := make([]*Result, n)
	errs := make([]error, n)
	for i, s := range schemes {
		res, err := Run(l, s, Options{Source: opt.Sources[i], Ctx: opt.Ctx})
		if res == nil {
			// Run rejected the configuration every lane shares.
			return nil, nil, err
		}
		results[i], errs[i] = res, err
	}
	return results, errs, nil
}
