package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/dist"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	distWorkers = 2
	distLanes   = 1 // leases per worker; each worker simulates one at a time
)

// fig6Requests is the Figure 6 matrix as campaign requests: every
// workload on NVP and the four evaluated schemes, RF-Home timeline seed.
func fig6Requests(seed int64) []service.CellRequest {
	names := workloads.Names()
	sort.Strings(names)
	schemes := []string{arch.NVP.String()}
	for _, k := range arch.EvalKinds() {
		schemes = append(schemes, k.String())
	}
	return dist.MatrixSpec{Workloads: names, Schemes: schemes,
		Profile: trace.RFHome.String(), Seeds: []int64{seed}}.Requests()
}

// cluster is one cold distributed set-up: distWorkers in-process sweepd
// workers on loopback, each with its own durable store, and a coordinator
// with a merge journal.
type cluster struct {
	svcs    []*service.Service
	stops   []func() error
	merge   *journal.Journal
	coord   *dist.Coordinator
	tracker *obs.CampaignTracker
}

func bootCluster(dir string, hl *handlerLog, sp *recorder) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{tracker: obs.NewCampaignTracker(quietLog)}
	var urls []string
	for w := 0; w < distWorkers; w++ {
		svc, err := service.New(service.Config{StorePath: filepath.Join(dir, fmt.Sprintf("worker-%d.jsonl", w)),
			MaxSim: distLanes, Log: quietLog})
		if err != nil {
			return nil, errors.Join(err, c.stop())
		}
		c.svcs = append(c.svcs, svc)
		o := observer{log: hl, spans: sp, track: fmt.Sprintf("worker-%d", w)}
		url, stop, err := serveHTTP(o.wrap(svc.Handler(obs.NewRunInfo("sweepd", sim.EngineVersion))))
		if err != nil {
			return nil, errors.Join(err, c.stop())
		}
		c.stops = append(c.stops, stop)
		urls = append(urls, url)
	}
	merge, err := journal.Open(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	c.merge = merge
	c.coord, err = dist.New(dist.Config{Workers: urls, LanesPerWorker: distLanes,
		MergeJournal: merge, Tracker: c.tracker, Log: quietLog})
	if err != nil {
		return nil, errors.Join(err, c.stop())
	}
	return c, nil
}

// stop shuts the cluster down and waits for its servers.
func (c *cluster) stop() error {
	var errs []error
	if c.coord != nil {
		c.coord.Close()
	}
	for _, stop := range c.stops {
		errs = append(errs, stop())
	}
	for _, svc := range c.svcs {
		errs = append(errs, svc.Close())
	}
	if c.merge != nil {
		errs = append(errs, c.merge.Close())
	}
	return errors.Join(errs...)
}

// runDist repeats a cold distributed campaign: each unit boots a fresh
// cluster (set-up), then a dist.Coordinator leases the Figure 6 matrix to
// the workers, where every cell is a store miss, and appends each
// completion to its merge journal. Trace tapes are cold in every unit; the
// process-wide compile cache is warm after the first. The matrix runs on
// timeline seed 1, as sweepcoord's default does; the seed picks the
// request order of every unit, so the work does not vary with it.
//
// An operation is one cell; its latency is the coordinator's dispatch to
// completion, from its campaign tracker. The check: every unit's
// Report.CampaignDigest equals dist.RunLocal's on the same requests, with
// no quarantined cells and no digest mismatches.
func runDist(cfg *runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	probes, err := startupSamples(cfg)
	if err != nil {
		return nil, err
	}
	reqs := fig6Requests(1)
	rng := rand.New(rand.NewSource(cfg.seed))
	fp := config.Default().Fingerprint()
	hl := &handlerLog{}

	var digests []string
	var entries []entry
	var mergePath string
	var attempts, storeHits, storeLookups, storeMisses, campaignRaw float64
	cpu0 := cpuSeconds()
	start := time.Now()
	for u := 0; cfg.more(u, start); u++ {
		sp := cfg.spansFor(u)
		settle()
		trace.FlushSharedTapes()
		order := append([]service.CellRequest(nil), reqs...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		dir := filepath.Join(cfg.dir, fmt.Sprintf("campaign-%d", u))

		t := time.Now()
		s := sp.begin("boot cluster", "coordinator", -1, int64(u))
		cl, err := bootCluster(dir, hl, sp)
		sp.end(s)
		if err != nil {
			return nil, err
		}
		o.setup = append(o.setup, cfg.scale(since(t)))

		t = time.Now()
		s = sp.begin("dist.Coordinator.Run", "coordinator", -1, int64(u))
		rep, err := cl.coord.Run(context.Background(), order)
		sp.end(s)
		ran := since(t)
		o.units = append(o.units, cfg.scale(ran))
		campaignRaw += ran.dur.Seconds()
		if err != nil {
			return nil, errors.Join(err, cl.stop())
		}

		o.attempted += len(reqs)
		o.failed += len(reqs) - len(rep.Completed) + rep.DigestMismatches
		digests = append(digests, rep.CampaignDigest())
		entries, mergePath = entries[:0], filepath.Join(dir, "merged.jsonl")
		for _, oc := range rep.Completed {
			attempts += float64(oc.Attempts)
			cell := journal.Cell{Workload: oc.Cell.Workload, Scale: 1, Scheme: oc.Cell.Scheme,
				Profile: oc.Cell.Profile, Seed: oc.Cell.Seed, ParamsFP: fp, Engine: sim.EngineVersion}
			rec, ok := cl.merge.Lookup(cell)
			if !ok || cell.Key() != oc.Key {
				o.failed++
				continue
			}
			o.ops++
			o.instrs += rec.Counts.Executed
			if u == 0 {
				o.layers["sim.instrs"] += float64(rec.Counts.Executed)
				o.layers["sim.outages"] += float64(rec.Outages)
			}
			entries = append(entries, entry{cell, rec})
		}
		for _, cp := range cl.tracker.Progress().Cells {
			if cp.State == obs.CellDone {
				d := time.Duration(cp.DurationMs * float64(time.Millisecond))
				o.lat = append(o.lat, cfg.speed.scaledWithin(d, ran.at, ran.at.Add(ran.dur)))
			}
		}
		for _, svc := range cl.svcs {
			st := svc.Store().Stats()
			storeHits += float64(st.MemHits + st.DiskHits)
			storeMisses += float64(st.Misses)
			storeLookups += float64(st.MemHits + st.DiskHits + st.Misses + st.DedupCollapses)
		}
		if err := cl.stop(); err != nil {
			return nil, err
		}
	}
	for _, d := range o.units {
		o.window += d
	}
	o.layers["host.cpu_util"] = cpuUtil(cpu0, cpuSeconds(), time.Since(start).Seconds())
	o.traced = alternating(len(o.units), cfg.traced)
	for i := range o.setup {
		o.setup[i] += median(probes)
	}

	local, err := dist.RunLocal(context.Background(), reqs, quietLog)
	if err != nil {
		return nil, fmt.Errorf("golden run: %w", err)
	}
	if len(local.Quarantined) > 0 {
		return nil, fmt.Errorf("golden run quarantined %d cells", len(local.Quarantined))
	}
	golden := local.CampaignDigest()
	o.check = func(corrupt bool) int {
		want := golden
		if corrupt {
			want = corruptString(want)
		}
		bad := 0
		for _, d := range digests {
			if d != want {
				bad += len(reqs)
			}
		}
		return bad
	}

	if cfg.traced {
		cells := float64(o.ops)
		leases := hl.durations("/v1/lease")
		leaseSum := 0.0
		for _, d := range leases {
			leaseSum += d
		}
		o.layers["dist.lease_ms.p50"] = quantile(leases, 0.50) * 1e3
		o.layers["dist.lease_ms.p99"] = quantile(leases, 0.99) * 1e3
		o.layers["dist.leases_per_cell"] = attempts / cells
		o.layers["dist.coord_ms_per_cell"] = (campaignRaw*distWorkers*distLanes - leaseSum) / cells * 1e3
		o.layers["store.hit_ratio"] = storeHits / storeLookups
		o.layers["store.sims_per_missed_key"] = storeMisses / cells
		if err := probeJournal(cfg.dir, entries, mergePath, cfg.spans, o.layers); err != nil {
			return nil, err
		}
		var keys []cellKey
		for _, r := range reqs {
			k, _ := arch.ParseKind(r.Scheme)
			keys = append(keys, cellKey{r.Workload, k, r.Profile, r.Seed})
		}
		if err := probeLayers(rand.New(rand.NewSource(cfg.seed)), keys, cfg.spans, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}
