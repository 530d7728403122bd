package service

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"
)

// LoadSpec drives the load-generator scenario: Clients concurrent
// clients each walk the Cells list Repeat times. Every client requests
// every cell, so the same key is in flight from many clients at once —
// the mixed workload that exercises singleflight dedup (identical
// concurrent requests), store hits (repeats: memory for a cell this
// daemon simulated, disk for one its journal held at start-up), and the
// miss path (first arrivals), all in one run.
type LoadSpec struct {
	Clients int           `json:"clients"`
	Repeat  int           `json:"repeat"`
	Cells   []CellRequest `json:"cells"`
}

// LoadReport is the scenario's verdict. The invariant checked: for each
// key, every response across every client and repetition carried one
// digest. Tier counts show the cache doing its job (at most one
// "simulated" per distinct cell is the ideal; dedup makes the observed
// number one per cell that wasn't already durable).
type LoadReport struct {
	Requests int            `json:"requests"`
	Failures int            `json:"failures"`
	Tiers    map[string]int `json:"tiers"`
	// Digests maps cell key -> the one digest every response agreed on.
	Digests   map[string]string `json:"digests"`
	ElapsedNs int64             `json:"elapsed_ns"`
}

// RunLoad executes the scenario against the server behind cl. It fails
// if any request errors or if two responses for the same key ever
// disagree on the digest — the correctness property "memoization is
// invisible" reduced to one check.
func RunLoad(ctx context.Context, cl *Client, spec LoadSpec) (*LoadReport, error) {
	if spec.Clients <= 0 {
		spec.Clients = 4
	}
	if spec.Repeat <= 0 {
		spec.Repeat = 1
	}
	if len(spec.Cells) == 0 {
		return nil, fmt.Errorf("loadgen: no cells to request")
	}

	type obs struct {
		key, digest, tier string
		err               error
	}
	results := make(chan obs, spec.Clients*spec.Repeat*len(spec.Cells))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for rep := 0; rep < spec.Repeat; rep++ {
				for i := range spec.Cells {
					// Each client starts at its own offset so distinct
					// cells are in flight concurrently while every cell
					// still gets concurrent identical requests.
					req := spec.Cells[(i+c)%len(spec.Cells)]
					resp, err := cl.Cell(ctx, req)
					if err != nil {
						results <- obs{err: err}
						continue
					}
					results <- obs{key: resp.Key, digest: resp.Digest, tier: resp.Tier}
				}
			}
		}(c)
	}
	wg.Wait()
	close(results)

	rep := &LoadReport{
		Tiers:     map[string]int{},
		Digests:   map[string]string{},
		ElapsedNs: time.Since(start).Nanoseconds(),
	}
	var firstErr error
	var mismatches []string
	for r := range results {
		rep.Requests++
		if r.err != nil {
			rep.Failures++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		rep.Tiers[r.tier]++
		if prev, ok := rep.Digests[r.key]; !ok {
			rep.Digests[r.key] = r.digest
		} else if prev != r.digest {
			mismatches = append(mismatches, r.key)
		}
	}
	if firstErr != nil {
		return rep, fmt.Errorf("loadgen: %d/%d requests failed, first: %w", rep.Failures, rep.Requests, firstErr)
	}
	if len(mismatches) > 0 {
		sort.Strings(mismatches)
		return rep, fmt.Errorf("loadgen: digest disagreement on %d keys (first %.16s…) — the cache served a wrong record", len(mismatches), mismatches[0])
	}
	return rep, nil
}
