package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"gals/internal/control"
	"gals/internal/core"
	"gals/internal/recstore"
	"gals/internal/workload"
)

// simWindow is the slab length the sim_phase workload replays.
const simWindow = 200_000

// setupReps is how many times a workload repeats its set-up; setup_s is
// the median, because single set-ups under a second spread widely.
const setupReps = 3

// phaseConfig is galsim -mode phase: the adaptive base configuration under
// the paper controllers, PLL lock times scaled for short windows.
func phaseConfig() core.Config {
	cfg := core.DefaultAdaptive(core.PhaseAdaptive)
	cfg.PLLScale = 0.1
	return cfg
}

// order yields benchmark indices in seeded rounds: each round is a fresh
// permutation of all n, so every benchmark is replayed equally often.
type order struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newOrder(seed uint64, n int) *order {
	return &order{rng: rand.New(rand.NewPCG(seed, 0x9a15)), n: n}
}

func (o *order) next() int {
	if len(o.perm) == 0 {
		o.perm = o.rng.Perm(o.n)
	}
	b := o.perm[0]
	o.perm = o.perm[1:]
	return b
}

// recordAll records every spec's window-instruction slab into a fresh
// recording store at dir and returns the store and the mapped recordings.
func recordAll(dir string, specs []workload.Spec, window int64, tr *tracer) (*recstore.Store, []*workload.Recording, error) {
	st, err := recstore.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	recs := make([]*workload.Recording, len(specs))
	for i, s := range specs {
		id := tr.start("recstore.Recording", -1, -1)
		recs[i], err = st.Recording(s, window)
		tr.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("record %s: %w", s.Name, err)
		}
	}
	return st, recs, nil
}

// releaseAll returns the references recordAll took.
func releaseAll(st *recstore.Store, specs []workload.Spec, window int64) {
	for _, s := range specs {
		st.Release(s, window)
	}
}

// simPhase is the sim_phase workload: one closed-loop client replaying the
// 40 suite slabs that set-up mapped through the Phase-Adaptive machine, in
// seeded order.
func simPhase(e env) (*outcome, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	specs := workload.Suite()
	var st *recstore.Store
	var recs []*workload.Recording
	var dir string
	out := &outcome{}
	for k := 0; k < setupReps; k++ {
		if st != nil {
			releaseAll(st, specs, simWindow)
			os.RemoveAll(dir)
		}
		if dir, err = e.scratch("slabs"); err != nil {
			return nil, err
		}
		var rerr error
		out.stats.setups = append(out.stats.setups, timeIt(func() {
			st, recs, rerr = recordAll(dir, specs, simWindow, e.tr)
		}))
		if rerr != nil {
			return nil, rerr
		}
	}
	defer releaseAll(st, specs, simWindow)

	cfg := phaseConfig()
	ord := newOrder(e.seed, len(specs))
	first := make([]*phaseGolden, len(specs))
	traced := func(i int) bool { return e.tr != nil && i%2 == 1 }
	runOps(&out.stats, e.ref, e.budget, 0, func(i int) op {
		b := ord.next()
		var res *core.Result
		id := e.tr.start("op", -1, i)
		d := e.pert.timeOp(func() {
			if traced(i) {
				res, _ = tracedPhase(e.tr, id, i, recs[b], cfg, simWindow)
			} else {
				res = core.RunSource(recs[b].Replay(), cfg, simWindow)
			}
		})
		e.tr.end(id)
		got := phaseOf(res)
		name := specs[b].Name
		if got != g.Phase[name] {
			out.stats.fail("sim_phase %s: got %+v, golden %+v", name, got, g.Phase[name])
		}
		if first[b] == nil {
			first[b] = &got
		} else if got != *first[b] {
			out.stats.fail("sim_phase %s: replay %+v differs from the run's first replay %+v", name, got, *first[b])
		}
		return op{dur: d, insts: res.Stats.Instructions, traced: traced(i)}
	})
	if e.tr == nil {
		return out, nil
	}
	out.layers = overhead(out.stats.ops)
	lp := &layerPass{e: e, window: simWindow, specs: specs, order: ord, recStats: st.Stats()}
	if err := lp.run(out.layers); err != nil {
		return nil, err
	}
	return out, nil
}

// timedController wraps a policy's controller and times its decisions,
// recording each as a span under the run that asked for it.
type timedController struct {
	control.Controller
	tr        *tracer
	parent    int
	opID      int
	decisions int
	decideNS  int64
}

func (c *timedController) DecideCaches(obs control.CacheObs, buf []control.Reconfig) []control.Reconfig {
	id := c.tr.start("control.DecideCaches", c.parent, c.opID)
	t0 := time.Now()
	buf = c.Controller.DecideCaches(obs, buf)
	c.note(t0, id)
	return buf
}

func (c *timedController) DecideIQs(obs control.IQObs, buf []control.Reconfig) []control.Reconfig {
	id := c.tr.start("control.DecideIQs", c.parent, c.opID)
	t0 := time.Now()
	buf = c.Controller.DecideIQs(obs, buf)
	c.note(t0, id)
	return buf
}

func (c *timedController) note(t0 time.Time, id int) {
	c.decideNS += time.Since(t0).Nanoseconds()
	c.decisions++
	c.tr.end(id)
}

// tracedPhase is one Phase-Adaptive replay with a span per call into core
// and per controller decision. The paper policy is constructed here and
// handed to core.NewMachineController, which is bit-identical to letting
// core construct it from the config.
func tracedPhase(tr *tracer, parent, opID int, rec *workload.Recording, cfg core.Config, n int64) (*core.Result, *timedController) {
	inner, err := control.New(control.DefaultPolicy, "", control.Init{
		IntIQ: cfg.IntIQ, FPIQ: cfg.FPIQ, ICache: cfg.ICache, DCache: cfg.DCache,
		IQHysteresis: cfg.IQHysteresis,
	})
	if err != nil {
		panic(err) // the paper policy with default parameters always resolves
	}
	var m *core.Machine
	tc := &timedController{Controller: inner, tr: tr, opID: opID}
	tr.do("core.NewMachineController", parent, opID, func() {
		m = core.NewMachineController(rec.Replay(), cfg, tc)
	})
	id := tr.start("core.Machine.Run", parent, opID)
	tc.parent = id
	res := m.Run(n)
	tr.end(id)
	return res, tc
}
