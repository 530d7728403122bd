package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/workloads"
)

// QuickWorkloads is the sweep subset, sorted: exp.QuickWorkloads, the
// set `sweepexp -quick` runs.
var QuickWorkloads = exp.QuickWorkloads

// ParseWorkloads resolves a -workloads flag: "quick" (the sweep
// subset), "all", or a comma-separated list of workload names.
func ParseWorkloads(spec string) ([]string, error) {
	switch spec {
	case "", "quick":
		return QuickWorkloads, nil
	case "all":
		names := workloads.Names()
		sort.Strings(names)
		return names, nil
	}
	var out []string
	for _, n := range strings.Split(spec, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if _, err := workloads.ByName(n); err != nil {
			return nil, fmt.Errorf("dist: %w", err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dist: empty workload list %q", spec)
	}
	return out, nil
}

// ParseSchemes resolves a -schemes flag: "" for the headline evaluation
// schemes (Figures 5–7), "all", or a comma-separated list of scheme
// names in their presentation form (e.g. "Sweep-EmptyBit").
func ParseSchemes(spec string) ([]string, error) {
	var kinds []arch.Kind
	switch spec {
	case "", "eval":
		kinds = arch.EvalKinds()
	case "all":
		kinds = arch.AllKinds()
	default:
		for _, n := range strings.Split(spec, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			k, ok := arch.ParseKind(n)
			if !ok {
				return nil, fmt.Errorf("dist: unknown scheme %q (want one of %v)", n, arch.AllKinds())
			}
			kinds = append(kinds, k)
		}
		if len(kinds) == 0 {
			return nil, fmt.Errorf("dist: empty scheme list %q", spec)
		}
	}
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = k.String()
	}
	return out, nil
}

// MatrixSpec names a campaign's cell matrix: the cross product of
// workloads × schemes × seeds under one supply profile, scale, and
// params override.
type MatrixSpec struct {
	Workloads []string
	Schemes   []string
	Profile   string
	Seeds     []int64
	Scale     int
	Params    json.RawMessage
}

// Requests expands the matrix into cell requests in deterministic
// order (workload-major, then scheme, then seed).
func (m MatrixSpec) Requests() []service.CellRequest {
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	var out []service.CellRequest
	for _, w := range m.Workloads {
		for _, s := range m.Schemes {
			for _, seed := range seeds {
				out = append(out, service.CellRequest{
					Workload: w, Scheme: s, Profile: m.Profile,
					Scale: m.Scale, Seed: seed, Params: m.Params,
				})
			}
		}
	}
	return out
}

// RunLocal runs the same requests in-process through a memory-only
// service — the single-process golden path every distributed campaign
// is proven byte-identical against. The service layer guarantees the
// cells go through exactly the machinery a worker would use.
func RunLocal(ctx context.Context, reqs []service.CellRequest, log *slog.Logger) (*Report, error) {
	svc, err := service.New(service.Config{Log: log})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	rep := &Report{Workers: []string{"local"}}
	for i, item := range svc.Cells(ctx, reqs) {
		switch {
		case item.Response != nil:
			r := item.Response
			rep.Completed = append(rep.Completed, Outcome{
				Cell: reqs[i], Key: r.Key, Digest: r.Digest,
				Tier: r.Tier, Worker: "local", Attempts: 1,
			})
		default:
			rep.Quarantined = append(rep.Quarantined,
				Quarantined{Cell: reqs[i], Attempts: 1, LastError: item.Error})
		}
	}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	return rep, nil
}
