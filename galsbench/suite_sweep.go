package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"gals"
	"gals/internal/experiment"
	"gals/internal/recstore"
	"gals/internal/resultcache"
	"gals/internal/sweep"
	"gals/internal/workload"
)

const (
	// suiteWindow is the instruction window of every Figure-6 cell.
	suiteWindow = 1000
	// suiteSeeds pipeline seeds have goldens: seeds suiteSeedBase.. in
	// order. The benchmark seed picks one of them.
	suiteSeeds    = 4
	suiteSeedBase = 42
	// suiteSetupReps pipeline cache directories are prepared in set-up and
	// each op takes the next; a set-up is short, so setup_s is the median
	// of many.
	suiteSetupReps = 40
	// suiteOpTime is about one pipeline's wall time on the 2-vCPU host the
	// benchmark was built on. A run holds budget/suiteOpTime ops (at least
	// one, two in a traced run): a fixed count, because the p50 and p90 of
	// two samples are not those of three.
	suiteOpTime = 10 * time.Second
	// refBurst speed-reference samples are taken before each pipeline and
	// after the last: the pipelines leave no gaps between them to tick in.
	refBurst = 10
)

// suiteOptions is the Figure-6 pipeline the suite_sweep workload runs: the
// pruned synchronous space, window suiteWindow, a 2-worker pool.
func suiteOptions(seed int64) experiment.Options {
	return experiment.Options{Window: suiteWindow, Workers: 2, PLLScale: 0.1, Seed: seed}
}

// suiteCells is the number of simulator cells in one pipeline: every
// synchronous and adaptive configuration on every benchmark, plus one
// Phase-Adaptive run per benchmark.
func suiteCells() int64 {
	n := int64(len(workload.Suite()))
	return n * int64(len(sweep.QuickSyncSpace())+len(sweep.AdaptiveSpace())+1)
}

// suiteSetup prepares dir as the persistent cache of one pipeline, which
// is what the pipeline needs before its first cell: an empty result cache,
// and the recording store under it (where gals.UsePersistentCache looks)
// holding the 40 window-suiteWindow slabs the cells replay. It also builds
// the two configuration spaces.
func suiteSetup(dir string) error {
	if _, err := resultcache.Open(dir); err != nil {
		return err
	}
	st, err := recstore.Open(filepath.Join(dir, recstore.Subdir))
	if err != nil {
		return err
	}
	specs := workload.Suite()
	for _, s := range specs {
		if _, err := st.Recording(s, suiteWindow); err != nil {
			return err
		}
	}
	releaseAll(st, specs, suiteWindow)
	if len(sweep.QuickSyncSpace()) == 0 || len(sweep.AdaptiveSpace()) == 0 {
		return fmt.Errorf("empty configuration space")
	}
	return nil
}

// suiteSweep is the suite_sweep workload: the whole Figure-6 pipeline per
// op, from scratch: no memo, and a result cache no earlier op has filled.
func suiteSweep(e env) (*outcome, error) {
	g, err := loadGoldens()
	if err != nil {
		return nil, err
	}
	seed := suiteSeedBase + int64(e.seed%suiteSeeds)
	want := g.Suite[strconv.FormatInt(seed, 10)]
	opts := suiteOptions(seed)
	out := &outcome{}
	prepare := func() (dir string, took time.Duration, err error) {
		if dir, err = e.scratch("pipeline"); err != nil {
			return "", 0, err
		}
		took = timeIt(func() { err = suiteSetup(dir) })
		return dir, took, err
	}
	var ready []string
	for k := 0; k < suiteSetupReps; k++ {
		dir, took, err := prepare()
		if err != nil {
			return nil, err
		}
		out.stats.setups = append(out.stats.setups, took)
		ready = append(ready, dir)
	}

	cells := suiteCells()
	traced := func(i int) bool { return e.tr != nil && i%2 == 1 }
	var stages stageTimes
	defer gals.DisablePersistentCache()
	ops := max(1, int((e.budget+suiteOpTime/2)/suiteOpTime))
	if e.tr != nil {
		ops = max(ops, 2) // one untraced and one traced op at least
	}
	for i := 0; i < ops; i++ {
		if i == len(ready) {
			// More ops than prepared directories: set up one more, untimed.
			dir, _, err := prepare()
			if err != nil {
				return nil, err
			}
			ready = append(ready, dir)
		}
		if i > 0 {
			os.RemoveAll(ready[i-1])
		}
		if err := gals.UsePersistentCache(ready[i]); err != nil {
			return nil, err
		}
		e.ref.burst(refBurst)
		experiment.ResetSuiteMemo()
		var got suiteGolden
		a0 := totalAlloc()
		id := e.tr.start("op", -1, i)
		d := e.pert.timeOp(func() {
			if e.tr != nil {
				// Every op of a traced run takes the stage-split path, so
				// traced and untraced ops run the same code and differ
				// only by their spans.
				var tr *tracer
				if traced(i) {
					tr = e.tr
				}
				got, err = suiteStages(tr, id, i, workload.Suite(), opts, &stages)
				return
			}
			var r *experiment.SuiteResult
			if r, err = gals.EvaluateSuite(opts); err == nil {
				got = suiteOf(r)
			}
		})
		e.tr.end(id)
		out.stats.allocBytes += totalAlloc() - a0
		out.stats.elapsed += d
		out.stats.attempted++
		out.stats.ops = append(out.stats.ops, op{dur: d, insts: cells * suiteWindow, traced: traced(i)})
		if err != nil {
			out.stats.fail("suite_sweep: %v", err)
		} else if got != want {
			out.stats.fail("suite_sweep seed %d: got %+v, golden %+v", seed, got, want)
		}
	}
	e.ref.burst(refBurst)
	if e.tr == nil {
		return out, nil
	}
	out.layers = overhead(out.stats.ops)
	specs := workload.Suite()
	lp := &layerPass{e: e, window: suiteWindow, specs: specs, order: newOrder(e.seed, len(specs)), stages: &stages}
	if err := lp.run(out.layers); err != nil {
		return nil, err
	}
	return out, nil
}

// stageTimes collects the traced pipeline's per-stage wall times.
type stageTimes struct {
	sync, adaptive, phase []float64
	cells, steals         int64
}

// suiteStages is experiment.RunSuite over specs taken apart at its stages,
// each stage timed on its own (with a span, when tr is set). It runs the
// cells on a pool of its own to count work-stealing.
func suiteStages(tr *tracer, parent, opID int, specs []workload.Spec, o experiment.Options, st *stageTimes) (suiteGolden, error) {
	pool := sweep.NewPool(o.Workers, 0)
	defer pool.Close()
	so := sweep.Options{Window: o.Window, Workers: o.Workers, Seed: o.Seed, PLLScale: o.PLLScale, Exec: pool}
	so.Traces = sweep.NewRecordingPool(o.Window)
	defer so.Traces.Retire()
	stage := func(name string, acc *[]float64, fn func() error) error {
		id := tr.start(name, parent, opID)
		t0 := time.Now()
		err := fn()
		*acc = append(*acc, time.Since(t0).Seconds())
		tr.end(id)
		return err
	}
	syncCfgs, adCfgs := sweep.QuickSyncSpace(), sweep.AdaptiveSpace()
	var syncSum, adSum *sweep.Summary
	var phase []*gals.Result
	err := stage("sweep.MeasureSummary.sync", &st.sync, func() (err error) {
		syncSum, err = sweep.MeasureSummary(specs, syncCfgs, so)
		return err
	})
	if err == nil {
		err = stage("sweep.MeasureSummary.adaptive", &st.adaptive, func() (err error) {
			adSum, err = sweep.MeasureSummary(specs, adCfgs, so)
			return err
		})
	}
	if err == nil {
		err = stage("sweep.MeasurePhase", &st.phase, func() (err error) {
			phase, err = sweep.MeasurePhase(specs, so)
			return err
		})
	}
	if err != nil {
		return suiteGolden{}, err
	}
	if syncSum.Best < 0 {
		return suiteGolden{}, fmt.Errorf("no finite synchronous run time")
	}
	st.cells += pool.Completed()
	st.steals += pool.Steals()
	// The fold RunSuite applies: suite-mean improvements over the best
	// synchronous machine.
	var g suiteGolden
	g.BestSync = syncCfgs[syncSum.Best].Label()
	for i := range specs {
		g.MeanProg += sweep.Improvement(syncSum.BestTimes[i], adSum.PerAppTimes[i])
		g.MeanPhase += sweep.Improvement(syncSum.BestTimes[i], phase[i].TimeFS)
	}
	g.MeanProg /= float64(len(specs))
	g.MeanPhase /= float64(len(specs))
	return g, nil
}
