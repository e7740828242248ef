package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"time"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/clock"
	"gals/internal/core"
	"gals/internal/isa"
	"gals/internal/queue"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/service"
	"gals/internal/sweep"
	"gals/internal/timing"
	"gals/internal/workload"
)

const (
	// probeInsts is how many instructions the layer pass feeds through the
	// per-instruction layers.
	probeInsts = 800_000
	// stageSpecs benchmarks run through the three sweep stages when the
	// workload's own ops did not measure them.
	stageSpecs = 8
	// serviceReps warm requests time the service and HTTP layers.
	serviceReps = 200
	// serviceCold fresh requests time a cold in-process Service.Run.
	serviceCold = 10
)

// layerPass times, after a traced run's ops, the calls the program makes
// internally: it feeds the run's own inputs (slabs, configurations, result
// blobs) through each inner layer's public functions, one span per call or
// per loop of calls.
type layerPass struct {
	e      env
	window int64
	specs  []workload.Spec
	order  *order
	// recStats are the counters of the recording store the run used.
	recStats recstore.Stats
	// stages, when set, are sweep stage times the run's ops measured.
	stages *stageTimes
	// srv, primeReqs and primeRes are the serve workload's service, its
	// primed requests and their responses.
	srv       *server
	primeReqs []service.RunRequest
	primeRes  []service.RunResult
}

func (lp *layerPass) span(name string, fn func()) time.Duration {
	id := lp.e.tr.start(name, -1, -1)
	d := timeIt(fn)
	lp.e.tr.end(id)
	return d
}

// run adds every per-layer metric the workload did not measure itself.
func (lp *layerPass) run(m map[string]metric) error {
	n := int(probeInsts / lp.window)
	n = max(1, min(n, len(lp.specs)))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = lp.order.next()
	}
	dir, err := lp.e.scratch("layers")
	if err != nil {
		return err
	}
	recs, err := lp.recordings(m, idx, dir)
	if err != nil {
		return err
	}
	insts := lp.instructions(m, recs)
	results, err := lp.core(m, recs)
	if err != nil {
		return err
	}
	lp.clock(m)
	lp.cache(m, insts)
	lp.bpred(m, insts)
	lp.queue(m, insts)
	if err := lp.sweep(m); err != nil {
		return err
	}
	if err := lp.resultcache(m, dir, results); err != nil {
		return err
	}
	return lp.service(m, idx)
}

// recordings records the probe benchmarks twice: once through
// workload.Spec.Record, once into a fresh recording store, then maps them
// back from a second store on the same directory.
func (lp *layerPass) recordings(m map[string]metric, idx []int, dir string) ([]*workload.Recording, error) {
	var recNS, recInsts int64
	for _, b := range idx {
		var r *workload.Recording
		recNS += lp.span("workload.Spec.Record", func() { r = lp.specs[b].Record(lp.window) }).Nanoseconds()
		recInsts += r.Len()
	}
	m["workload.record_ns_per_inst"] = metric{float64(recNS) / float64(recInsts), "ns"}

	st, err := recstore.Open(dir + "/slabs")
	if err != nil {
		return nil, err
	}
	var recMS, mapUS []float64
	for _, b := range idx {
		var rerr error
		d := lp.span("recstore.Recording", func() { _, rerr = st.Recording(lp.specs[b], lp.window) })
		if rerr != nil {
			return nil, rerr
		}
		recMS = append(recMS, float64(d)/1e6)
	}
	releaseAll(st, pick(lp.specs, idx), lp.window)
	st2, err := recstore.Open(dir + "/slabs")
	if err != nil {
		return nil, err
	}
	recs := make([]*workload.Recording, len(idx))
	for i, b := range idx {
		var rerr error
		d := lp.span("recstore.Recording", func() { recs[i], rerr = st2.Recording(lp.specs[b], lp.window) })
		if rerr != nil {
			return nil, rerr
		}
		mapUS = append(mapUS, float64(d)/1e3)
	}
	s1, s2 := st.Stats(), st2.Stats()
	m["recstore.record_ms"] = metric{median(recMS), "ms"}
	m["recstore.map_us"] = metric{median(mapUS), "us"}
	m["recstore.recorded"] = metric{float64(lp.recStats.Recorded + s1.Recorded + s2.Recorded), "count"}
	m["recstore.mapped"] = metric{float64(lp.recStats.Mapped + s1.Mapped + s2.Mapped), "count"}
	return recs, nil
}

func pick(specs []workload.Spec, idx []int) []workload.Spec {
	out := make([]workload.Spec, len(idx))
	for i, b := range idx {
		out[i] = specs[b]
	}
	return out
}

// instructions replays the probe slabs, timing workload.Replay.Next, and
// returns the instructions for the per-instruction layers.
func (lp *layerPass) instructions(m map[string]metric, recs []*workload.Recording) []isa.Inst {
	var insts []isa.Inst
	var ns int64
	for _, r := range recs {
		buf := make([]isa.Inst, r.Len())
		rp := r.Replay()
		ns += lp.span("workload.Replay.Next", func() {
			for i := range buf {
				rp.Next(&buf[i])
			}
		}).Nanoseconds()
		insts = append(insts, buf...)
	}
	m["workload.replay_ns_per_inst"] = metric{float64(ns) / float64(len(insts)), "ns"}
	return insts
}

// core runs the probe slabs on the Phase-Adaptive and best-synchronous
// machines, sequentially and at degree 2, and through the timed controller,
// and returns the sequential Phase-Adaptive results.
func (lp *layerPass) core(m map[string]metric, recs []*workload.Recording) ([]*core.Result, error) {
	phase, sync := phaseConfig(), core.DefaultSync()
	var phaseNS, syncNS, par2NS, insts, reconfigs int64
	var newUS []float64
	var results []*core.Result
	var decisions int
	var decideNS int64
	for _, r := range recs {
		for _, cfg := range []core.Config{phase, sync} {
			for k := 0; k < 3; k++ {
				d := lp.span("core.NewMachineSource", func() { core.NewMachineSource(r.Replay(), cfg) })
				newUS = append(newUS, float64(d)/1e3)
			}
		}
		var seq, par *core.Result
		phaseNS += lp.span("core.RunSource", func() { seq = core.RunSource(r.Replay(), phase, lp.window) }).Nanoseconds()
		syncNS += lp.span("core.RunSource", func() { core.RunSource(r.Replay(), sync, lp.window) }).Nanoseconds()
		par2NS += lp.span("core.RunSourceParallel", func() { par = core.RunSourceParallel(r.Replay(), phase, lp.window, 2) }).Nanoseconds()
		if phaseOf(par) != phaseOf(seq) {
			return nil, fmt.Errorf("layer pass: %s at degree 2 gave %+v, sequential %+v", r.Spec().Name, phaseOf(par), phaseOf(seq))
		}
		id := lp.e.tr.start("core.RunController", -1, -1)
		res, tc := tracedPhase(lp.e.tr, id, -1, r, phase, lp.window)
		lp.e.tr.end(id)
		if phaseOf(res) != phaseOf(seq) {
			return nil, fmt.Errorf("layer pass: %s with a wrapped controller gave %+v, plain %+v", r.Spec().Name, phaseOf(res), phaseOf(seq))
		}
		results = append(results, seq)
		decisions += tc.decisions
		decideNS += tc.decideNS
		insts += seq.Stats.Instructions
		reconfigs += seq.Stats.Reconfigs
	}
	fi := float64(insts)
	m["core.phase_ns_per_inst"] = metric{float64(phaseNS) / fi, "ns"}
	m["core.sync_ns_per_inst"] = metric{float64(syncNS) / fi, "ns"}
	m["core.parallel2_ns_per_inst"] = metric{float64(par2NS) / fi, "ns"}
	m["core.new_machine_us"] = metric{median(newUS), "us"}
	m["core.reconfigs_per_minst"] = metric{float64(reconfigs) * 1e6 / fi, "1/Minst"}
	m["control.decide_us"] = metric{float64(decideNS) / 1e3 / float64(max(decisions, 1)), "us"}
	m["control.decisions_per_minst"] = metric{float64(decisions) * 1e6 / fi, "1/Minst"}
	return results, nil
}

// clock times edge rounding and a cross-domain synchronization at the
// Phase-Adaptive machine's initial front-end and load/store periods, over
// timestamps advancing by up to three front-end cycles.
func (lp *layerPass) clock(m map[string]metric) {
	cfg := phaseConfig()
	fe := clock.New(clock.FrontEnd, cfg.ICache.AdaptPeriod(), uint64(cfg.Seed), 0)
	ls := clock.New(clock.LoadStore, cfg.DCache.AdaptPeriod(), uint64(cfg.Seed), 0)
	path := clock.NewSyncPath(fe, ls)
	rng := rand.New(rand.NewPCG(lp.e.seed, 0xc10c))
	ts := make([]timing.FS, 1<<20)
	var t timing.FS
	step := 3 * int64(cfg.ICache.AdaptPeriod())
	for i := range ts {
		t += timing.FS(rng.Int64N(step))
		ts[i] = t
	}
	var sink timing.FS
	edge := lp.span("clock.Clock.EdgeAtOrAfter", func() {
		for _, t := range ts {
			sink ^= ls.EdgeAtOrAfter(t)
		}
	})
	syn := lp.span("clock.SyncPath.Sync", func() {
		for _, t := range ts {
			sink ^= path.Sync(fe.EdgeAtOrAfter(t))
		}
	})
	refSink ^= byte(sink)
	n := float64(len(ts))
	m["clock.edge_ns"] = metric{float64(edge) / n, "ns"}
	m["clock.sync_ns"] = metric{float64(syn-edge) / n, "ns"}
}

// cache replays the probe slabs' loads and stores through the Accounting
// Cache at the adaptive L1-D geometry.
func (lp *layerPass) cache(m map[string]metric, insts []isa.Inst) {
	c := cache.New(cache.Geometry{Name: "L1D", Sets: 32 * 1024 / core.LineBytes, Ways: 8, LineBytes: core.LineBytes})
	var n int
	d := lp.span("cache.AccountingCache.AccessPos", func() {
		for i := range insts {
			if cl := insts[i].Class; cl == isa.Load || cl == isa.Store {
				c.AccessPos(insts[i].Addr, cl == isa.Store)
				n++
			}
		}
	})
	st := c.Stats()
	m["cache.access_ns"] = metric{float64(d) / float64(max(n, 1)), "ns"}
	m["cache.miss_ratio"] = metric{float64(st.DirMisses) / float64(max(st.Accesses, 1)), "ratio"}
}

// bpred predicts and trains every conditional branch of the probe slabs on
// the predictor sized for the smallest adaptive I-cache.
func (lp *layerPass) bpred(m map[string]metric, insts []isa.Inst) {
	p := bpred.New(timing.ICache16K1W.Spec().BPred)
	var n, miss int
	d := lp.span("bpred.Predictor.Predict+Update", func() {
		for i := range insts {
			if insts[i].Class != isa.Branch {
				continue
			}
			if p.Predict(insts[i].PC) != insts[i].Taken {
				miss++
			}
			p.Update(insts[i].PC, insts[i].Taken)
			n++
		}
	})
	m["bpred.ns_per_branch"] = metric{float64(d) / float64(max(n, 1)), "ns"}
	m["bpred.mispredict_ratio"] = metric{float64(miss) / float64(max(n, 1)), "ratio"}
}

// queue feeds every probe instruction to the ILP tracker.
func (lp *layerPass) queue(m map[string]metric, insts []isa.Inst) {
	t := queue.NewTracker()
	d := lp.span("queue.Tracker.Observe", func() {
		for i := range insts {
			t.Observe(&insts[i])
		}
	})
	m["queue.observe_ns"] = metric{float64(d) / float64(len(insts)), "ns"}
}

// sweep times no-op cells through a 2-worker pool, and the three pipeline
// stages on stageSpecs benchmarks unless the run's ops timed them.
func (lp *layerPass) sweep(m map[string]metric) error {
	const cells, perGroup = 20_000, 50
	pool := sweep.NewPool(2, 0)
	groups := make([][]func(), cells/perGroup)
	for i := range groups {
		groups[i] = make([]func(), perGroup)
		for j := range groups[i] {
			groups[i][j] = func() {}
		}
	}
	var err error
	d := lp.span("sweep.Pool.Execute", func() { err = pool.Execute(0, groups) })
	pool.Close()
	if err != nil {
		return err
	}
	m["sweep.dispatch_us_per_cell"] = metric{float64(d) / 1e3 / cells, "us"}

	st := lp.stages
	if st == nil {
		st = &stageTimes{}
		specs := make([]workload.Spec, 0, stageSpecs)
		for len(specs) < stageSpecs {
			specs = append(specs, lp.specs[lp.order.next()])
		}
		if _, err := suiteStages(lp.e.tr, -1, -1, specs, suiteOptions(suiteSeedBase), st); err != nil {
			return err
		}
	}
	m["sweep.steals_per_kcell"] = metric{float64(st.steals) * 1000 / float64(max(st.cells, 1)), "1/kcell"}
	m["sweep.sync_stage_s"] = metric{median(st.sync), "s"}
	m["sweep.adaptive_stage_s"] = metric{median(st.adaptive), "s"}
	m["sweep.phase_stage_s"] = metric{median(st.phase), "s"}
	return nil
}

// resultcache stores and reloads one result blob per probe slab's phase
// run (the serve workload's primed responses instead, when there are any)
// in a fresh cache: a lookup that misses, the store, and a lookup that hits.
func (lp *layerPass) resultcache(m map[string]metric, dir string, results []*core.Result) error {
	c, err := resultcache.Open(dir + "/results")
	if err != nil {
		return err
	}
	var blobs []any
	for _, r := range lp.primeRes {
		blobs = append(blobs, r)
	}
	if blobs == nil {
		for _, r := range results {
			blobs = append(blobs, r)
		}
	}
	var loadUS, storeUS []float64
	for i, b := range blobs {
		key := resultcache.Key("galsbench", i)
		got := reflect.New(reflect.TypeOf(b)).Interface() // decode into the blob's own type
		lp.span("resultcache.Cache.Load", func() { c.Load(key, got) })
		storeUS = append(storeUS, float64(lp.span("resultcache.Cache.Store", func() { c.Store(key, b) }))/1e3)
		var ok bool
		loadUS = append(loadUS, float64(lp.span("resultcache.Cache.Load", func() { ok = c.Load(key, got) }))/1e3)
		if !ok {
			return fmt.Errorf("layer pass: result blob %d did not reload", i)
		}
	}
	m["resultcache.load_us"] = metric{median(loadUS), "us"}
	m["resultcache.store_us"] = metric{median(storeUS), "us"}
	if _, ok := m["resultcache.hit_ratio"]; !ok {
		st := c.Stats()
		m["resultcache.hit_ratio"] = metric{float64(st.Hits) / float64(st.Hits+st.Misses), "ratio"}
	}
	return nil
}

// service times warm and cold in-process Service.Run calls and warm HTTP
// round trips: on the serve workload's own service, else on a fresh one
// primed with the probe benchmarks.
func (lp *layerPass) service(m map[string]metric, idx []int) error {
	srv, primes := lp.srv, lp.primeReqs
	if srv == nil {
		dir, err := lp.e.scratch("service")
		if err != nil {
			return err
		}
		if srv, err = startServer(dir, lp.e.tr); err != nil {
			return err
		}
		defer srv.stop()
		for _, b := range idx {
			primes = append(primes, service.RunRequest{Bench: lp.specs[b].Name, Mode: "phase", Window: serveWindow})
		}
		for _, r := range primes {
			if _, err := srv.svc.Run(context.Background(), r); err != nil {
				return err
			}
		}
		// Identical cold requests in pairs: the second should join the
		// first's simulation rather than start its own.
		before := srv.svc.Stats().DedupHits
		for k := 0; k < 5; k++ {
			req := primes[k%len(primes)]
			req.Seed = 3_000_000 + int64(k)
			var wg sync.WaitGroup
			errs := make([]error, 2)
			for j := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[j] = srv.svc.Run(context.Background(), req)
				}()
			}
			wg.Wait()
			if errs[0] != nil || errs[1] != nil {
				return fmt.Errorf("layer pass: dedup pair: %v, %v", errs[0], errs[1])
			}
		}
		m["service.dedup_ratio"] = metric{float64(srv.svc.Stats().DedupHits-before) / 10, "ratio"}
	}
	ctx := context.Background()
	var warmUS, coldMS, rttUS []float64
	for k := 0; k < serviceReps; k++ {
		req := primes[k%len(primes)]
		var err error
		warmUS = append(warmUS, float64(lp.span("service.Service.Run", func() { _, err = srv.svc.Run(ctx, req) }))/1e3)
		if err != nil {
			return err
		}
	}
	for k := 0; k < serviceCold; k++ {
		req := primes[k%len(primes)]
		req.Seed = 2_000_000 + int64(k)
		var err error
		coldMS = append(coldMS, float64(lp.span("service.Service.Run", func() { _, err = srv.svc.Run(ctx, req) }))/1e6)
		if err != nil {
			return err
		}
	}
	cl := newClient(srv.url)
	defer cl.close()
	for k := 0; k < serviceReps; k++ {
		req := primes[k%len(primes)]
		var err error
		rttUS = append(rttUS, float64(timeIt(func() { _, err = cl.run(req, lp.e.tr, -1, -1) }))/1e3)
		if err != nil {
			return err
		}
	}
	m["service.run_warm_us"] = metric{median(warmUS), "us"}
	m["service.run_cold_ms"] = metric{median(coldMS), "ms"}
	m["http.warm_rtt_us"] = metric{median(rttUS), "us"}
	return nil
}
