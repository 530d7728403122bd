package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

const (
	// The key universe: the quick workloads × all 8 schemes ×
	// serveSupplies × serveSeeds seeds = 640 cells, filled at set-up.
	serveSeeds = 5
	// serveMemCap keeps the memory tier below the universe, so the Zipf
	// tail is served from disk.
	serveMemCap = 256
	serveZipfS  = 1.1
	// Fresh keys are first-touch cells outside the universe: they simulate
	// and fsync. freshShared of the requests are fresh keys both clients
	// send at the same request index (so some collapse onto one
	// simulation); freshOwn more are fresh keys of one client only.
	freshShared = 0.005
	freshOwn    = 0.015
	// serveClients closed-loop clients, no more than the cores here.
	serveClients = 2
	// serveBatch requests of one client make one unit of work.
	serveBatch = 250
	// serveRestarts restarts of the daemon over the filled journal; the
	// last one serves.
	serveRestarts = 3
)

var serveSupplies = []string{service.OutageFree, trace.RFHome.String()}

// keyGen generates each client's request stream from the seed alone, so
// the stream does not depend on timing.
type keyGen struct {
	seed      uint64
	universe  []service.CellRequest // hottest first
	zipf      [serveClients]*rand.Zipf
	freshBase int64
	// shared and own count the fresh keys each client has drawn. Fresh
	// cells take every (workload, scheme) pair in turn, so every seed gets
	// the same mix of simulation costs.
	shared, own [serveClients]int
}

func newKeyGen(seed int64) *keyGen {
	g := &keyGen{seed: mix(uint64(seed)), freshBase: 1_000_000_000_000 + seed*10_000_000}
	for _, w := range dist.QuickWorkloads {
		for _, k := range arch.AllKinds() {
			for _, supply := range serveSupplies {
				for s := int64(0); s < serveSeeds; s++ {
					g.universe = append(g.universe, service.CellRequest{
						Workload: w, Scheme: k.String(), Profile: supply, Seed: 1 + s})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(g.universe), func(i, j int) { g.universe[i], g.universe[j] = g.universe[j], g.universe[i] })
	for c := range g.zipf {
		r := rand.New(rand.NewSource(seed*serveClients + int64(c) + 1))
		g.zipf[c] = rand.NewZipf(r, serveZipfS, 1, uint64(len(g.universe)-1))
	}
	return g
}

// next returns client c's request i. Calls for one client must come in
// index order, from one goroutine per client.
func (g *keyGen) next(c, i int) service.CellRequest {
	h := mix(g.seed ^ uint64(i))
	if unitFloat(h) < freshShared {
		// Both clients reach index i having drawn the same shared keys, so
		// they build the same cell.
		g.shared[c]++
		return g.fresh(g.shared[c], 3*int64(i))
	}
	if unitFloat(mix(h^uint64(c+1))) < freshOwn {
		g.own[c]++
		return g.fresh(g.own[c], 3*int64(i)+1+int64(c))
	}
	return g.universe[g.zipf[c].Uint64()]
}

// fresh builds a fresh cell: the j-th (workload, scheme) pair in turn,
// under RF-Home, on timeline freshBase+n, which no other request uses.
func (g *keyGen) fresh(j int, n int64) service.CellRequest {
	kinds := arch.AllKinds()
	nw := len(dist.QuickWorkloads)
	w, k := dist.QuickWorkloads[j%nw], kinds[(j/nw)%len(kinds)]
	return service.CellRequest{Workload: w, Scheme: k.String(), Profile: trace.RFHome.String(), Seed: g.freshBase + n}
}

// reply is one request as a client saw it. Strings are interned, so the
// log of a whole window stays small beside the daemon it measures.
type reply struct {
	at      time.Duration // since the window began
	lat     time.Duration
	elapsed int64 // Service.Cell's own time, from the response
	tier    int32
	key     int32
	digest  int32
	failed  bool
}

// interner maps repeated strings to small ids.
type interner struct {
	ids  map[string]int32
	strs []string
}

func (in *interner) id(s string) int32 {
	if id, ok := in.ids[s]; ok {
		return id
	}
	if in.ids == nil {
		in.ids = map[string]int32{}
	}
	in.strs = append(in.strs, s)
	in.ids[s] = int32(len(in.strs) - 1)
	return in.ids[s]
}

// runServe drives one in-process sweepd over loopback HTTP with
// serveClients closed-loop clients sending /v1/cell requests. Set-up fills
// a durable store with the key universe through the service, then
// restarts the daemon over the filled journal. The seed picks the
// universe's hot-key order, every client's key stream and the fresh-key
// schedule; the universe itself does not vary with it.
//
// An operation is one request; a unit is serveBatch requests of one
// client. The check: every response for a key carries one digest, across
// clients and tiers, and a universe key's digest equals the one recorded
// at fill.
func runServe(cfg *runConfig) (*outcome, error) {
	o := &outcome{layers: map[string]float64{}}
	probes, err := startupSamples(cfg)
	if err != nil {
		return nil, err
	}
	g := newKeyGen(cfg.seed)
	storePath := filepath.Join(cfg.dir, "store.jsonl")
	svcCfg := service.Config{StorePath: storePath, MemCap: serveMemCap,
		MaxSim: runtime.GOMAXPROCS(0), Log: quietLog}

	// Set-up: fill, then restart over the filled journal.
	t := time.Now()
	svc, err := service.New(svcCfg)
	if err != nil {
		return nil, err
	}
	s := cfg.spans.begin("Service.Cells fill", "setup", -1, 0)
	items := svc.Cells(context.Background(), g.universe)
	cfg.spans.end(s)
	if err := svc.Close(); err != nil {
		return nil, err
	}
	fill := cfg.scale(since(t))
	filled := map[string]string{}
	universeKeys := make([]string, len(items))
	for i, it := range items {
		if it.Response == nil {
			return nil, fmt.Errorf("fill %+v: %s", g.universe[i], it.Error)
		}
		filled[it.Response.Key] = it.Response.Digest
		universeKeys[i] = it.Response.Key
	}
	var restarts []float64
	for r := 0; r < serveRestarts; r++ {
		t := time.Now()
		s := cfg.spans.begin("service.New restart", "setup", -1, int64(r))
		svc, err = service.New(svcCfg)
		cfg.spans.end(s)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, cfg.scale(since(t)))
		if r < serveRestarts-1 {
			if err := svc.Close(); err != nil {
				return nil, err
			}
		}
	}
	o.setup = []float64{median(probes) + fill + median(restarts)}

	hl := &handlerLog{}
	srvObs := observer{log: hl, spans: cfg.spans, track: "sweepd", tagged: true}
	base, stop, err := serveHTTP(srvObs.wrap(svc.Handler(obs.NewRunInfo("sweepd", sim.EngineVersion))))
	if err != nil {
		svc.Close()
		return nil, err
	}

	settle()
	st0 := svc.Store().Stats()
	cpu0 := cpuSeconds()
	replies := make([][]reply, serveClients)
	units := make([][]timing, serveClients)
	traced := make([][]bool, serveClients)
	names := make([]interner, serveClients)
	simulated := make([]map[string]entry, serveClients)
	ends := make([]time.Time, serveClients)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			simulated[c] = map[string]entry{}
			cl := service.NewClient(base)
			cl.Retry = service.RetryPolicy{Attempts: 1}
			cl.HTTP = &http.Client{Transport: tagging{service.NewTransport()}}
			defer cl.HTTP.CloseIdleConnections()
			track := fmt.Sprintf("client-%d", c)
			var unitStart time.Time
			var sp *recorder
			for i := 0; ; i++ {
				if i%serveBatch == 0 {
					if i > 0 {
						units[c] = append(units[c], since(unitStart))
						traced[c] = append(traced[c], sp != nil)
					}
					if time.Now().After(deadline) {
						break
					}
					unitStart, sp = time.Now(), cfg.spansFor(i/serveBatch)
				}
				req := g.next(c, i)
				ctx := context.Background()
				id := int64(c)<<32 | int64(i)
				if sp != nil {
					ctx = context.WithValue(ctx, requestIDKey{}, id)
				}
				s := sp.begin("Client.Cell", track, -1, id)
				t := time.Now()
				resp, err := cl.Cell(ctx, req)
				lat := time.Since(t)
				sp.end(s)
				if err != nil {
					replies[c] = append(replies[c], reply{at: t.Sub(start), lat: lat, failed: true})
					continue
				}
				in := &names[c]
				replies[c] = append(replies[c], reply{at: t.Sub(start), lat: lat, elapsed: resp.ElapsedNs,
					tier: in.id(resp.Tier), key: in.id(resp.Key), digest: in.id(resp.Digest)})
				if resp.Tier == store.TierNone.String() && resp.Record != nil {
					simulated[c][resp.Key] = entry{resp.Cell, resp.Record}
				}
			}
			ends[c] = time.Now()
		}(c)
	}
	wg.Wait()
	end := start
	for _, e := range ends {
		if e.After(end) {
			end = e
		}
	}
	o.window = cfg.scale(timing{start, end.Sub(start)})
	o.layers["host.cpu_util"] = cpuUtil(cpu0, cpuSeconds(), end.Sub(start).Seconds())
	st1 := svc.Store().Stats()
	stopErr := stop()
	closeErr := svc.Close()
	if stopErr != nil {
		return nil, stopErr
	}
	if closeErr != nil {
		return nil, closeErr
	}

	tiers := map[string]int{}
	var missLat []float64
	fresh := map[string]entry{}
	for c := range replies {
		for _, u := range units[c] {
			o.units = append(o.units, cfg.scale(u))
		}
		o.traced = append(o.traced, traced[c]...)
		for _, r := range replies[c] {
			o.attempted++
			o.lat = append(o.lat, cfg.scale(timing{start.Add(r.at), r.lat}))
			if r.failed {
				o.failed++
				continue
			}
			o.ops++
			tier := names[c].strs[r.tier]
			tiers[tier]++
			if tier == store.TierNone.String() {
				missLat = append(missLat, o.lat[len(o.lat)-1])
			}
		}
		for k, e := range simulated[c] {
			fresh[k] = e
		}
	}
	o.notes = append(o.notes, fmt.Sprintf("tiers memory=%d disk=%d simulated=%d fresh_keys=%d; simulated latency p10=%.3f ms p50=%.3f ms",
		tiers[store.TierMemory.String()], tiers[store.TierDisk.String()], tiers[store.TierNone.String()], len(fresh),
		quantile(missLat, 0.10)*1e3, median(missLat)*1e3))
	var entries []entry
	for _, e := range fresh {
		o.instrs += e.rec.Counts.Executed
		o.layers["sim.instrs"] += float64(e.rec.Counts.Executed)
		o.layers["sim.outages"] += float64(e.rec.Outages)
		entries = append(entries, e)
	}

	o.check = func(corrupt bool) int {
		want := filled
		if corrupt {
			want = map[string]string{}
			for k, v := range filled {
				want[k] = v
			}
			want[universeKeys[0]] = corruptString(want[universeKeys[0]])
		}
		bad := 0
		seen := map[string]string{}
		for c := range replies {
			strs := names[c].strs
			for _, r := range replies[c] {
				if r.failed {
					continue
				}
				key, digest := strs[r.key], strs[r.digest]
				d, ok := want[key]
				if !ok {
					if d, ok = seen[key]; !ok {
						seen[key] = digest
						continue
					}
				}
				if d != digest {
					bad++
				}
			}
		}
		return bad
	}

	if cfg.traced {
		serveLayers(o.layers, replies, names, hl, st0, st1, len(fresh))
		if err := probeJournal(cfg.dir, entries, storePath, cfg.spans, o.layers); err != nil {
			return nil, err
		}
		var cells []cellKey
		for _, r := range g.universe {
			k, _ := arch.ParseKind(r.Scheme)
			cells = append(cells, cellKey{r.Workload, k, r.Profile, r.Seed})
		}
		for _, e := range entries {
			k, _ := arch.ParseKind(e.cell.Scheme)
			cells = append(cells, cellKey{e.cell.Workload, k, e.cell.Profile, e.cell.Seed})
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		if err := probeLayers(rng, cells, cfg.spans, o.layers); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serveLayers derives the store and service per-layer metrics from the
// replies, the server's handler log, and the store's counters before and
// after the window.
func serveLayers(layers map[string]float64, replies [][]reply, names []interner, hl *handlerLog, st0, st1 store.Stats, freshKeys int) {
	var mem, disk, hits, wire []float64
	for c, rs := range replies {
		for _, r := range rs {
			if r.failed {
				continue
			}
			cell := float64(r.elapsed) / 1e3 // µs
			switch names[c].strs[r.tier] {
			case store.TierMemory.String():
				mem = append(mem, cell)
			case store.TierDisk.String():
				disk = append(disk, cell)
			default:
				continue
			}
			hits = append(hits, cell)
			wire = append(wire, r.lat.Seconds()*1e6-cell)
		}
	}
	layers["store.mem_hit_us"] = median(mem)
	layers["store.disk_hit_us"] = median(disk)
	layers["service.cell_us"] = median(hits)
	layers["service.http_us"] = median(wire)
	layers["service.resp_bytes"] = hl.meanBytes("/v1/cell")

	memHits := float64(st1.MemHits - st0.MemHits)
	diskHits := float64(st1.DiskHits - st0.DiskHits)
	misses := float64(st1.Misses - st0.Misses)
	dedup := float64(st1.DedupCollapses - st0.DedupCollapses)
	if total := memHits + diskHits + misses + dedup; total > 0 {
		layers["store.hit_ratio"] = (memHits + diskHits) / total
	}
	if freshKeys > 0 {
		layers["store.sims_per_missed_key"] = misses / float64(freshKeys)
	}
}
