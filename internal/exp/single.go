package exp

import (
	"context"
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunSingle executes one cell with the full matrix-cell machinery —
// parameter validation, panic isolation (a panicking simulation comes
// back as a *CellError with the stack, never up the caller's stack),
// CellTimeout and chaos injection — but outside the context's store: it
// always simulates, and the caller serves it through its own
// store.Store, the lookup, dedup and durability path every matrix cell
// takes. This is the simulation entry point of simulation-as-a-service
// (internal/service).
func (c *Context) RunSingle(ctx context.Context, workload string, kind arch.Kind, profile *trace.Profile) (*sim.Result, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	if err := c.Params.Validate(); err != nil {
		return nil, fmt.Errorf("exp: invalid params: %w", err)
	}
	if ctx == nil {
		ctx = c.ctx()
	}
	id := c.CellID(workload, kind, profile, c.Seed, c.Params.Fingerprint())
	return c.runCell(ctx, matrixJob{w: w, k: kind, id: id}, c.Params, profile)
}
