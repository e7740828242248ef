package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/control"
	"gals/internal/timing"
	"gals/internal/workload"
)

const recycleWindow = 4000

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// recycleCell is one run the recycling tests repeat: a configuration, with
// or without a telemetry sampler and intra-run parallelism.
type recycleCell struct {
	name      string
	cfg       Config
	telemetry bool
	degree    int
}

// recycleCells covers every machine family: the synchronous machine on all
// 16 Table-3 rows x 4 D-cache configurations, Program-Adaptive with the
// ways-based and the sets-resized front end, Phase-Adaptive under every
// registered policy (sequential and two-stage), and a telemetry-on run.
func recycleCells(t *testing.T) []recycleCell {
	var cells []recycleCell
	for ic := 0; ic < timing.NumSyncICacheConfigs(); ic++ {
		for dc := 0; dc < timing.NumDCacheConfigs; dc++ {
			cfg := DefaultSync()
			cfg.SyncICache, cfg.DCache = ic, timing.DCacheConfig(dc)
			cells = append(cells, recycleCell{name: cfg.Label(), cfg: cfg})
		}
	}
	for ic := 0; ic < timing.NumICacheConfigs; ic++ {
		for _, bySets := range []bool{false, true} {
			cfg := DefaultAdaptive(ProgramAdaptive)
			cfg.ICache, cfg.ICacheBySets = timing.ICacheConfig(ic), bySets
			cfg.DCache = timing.DCacheConfig(ic) // vary the D side too
			cells = append(cells, recycleCell{name: cfg.Label(), cfg: cfg})
		}
	}
	for _, pol := range control.Names() {
		cfg := phaseCfg().WithPolicy(pol, "")
		cfg.RecordTrace = true
		if err := cfg.Validate(); err != nil {
			t.Logf("policy %s needs more than defaults, skipped: %v", pol, err)
			continue
		}
		cells = append(cells,
			recycleCell{name: cfg.Label(), cfg: cfg},
			recycleCell{name: cfg.Label() + "/par2", cfg: cfg, degree: 2})
	}
	tel := phaseCfg()
	tel.RecordTrace = true
	cells = append(cells, recycleCell{name: "telemetry", cfg: tel, telemetry: true})
	return cells
}

// recycleOutcome is everything a run hands its caller.
type recycleOutcome struct {
	Res *Result
	Tel *Telemetry
}

// run executes the cell through the recycling entry points.
func (c recycleCell) run(rec *workload.Recording) recycleOutcome {
	var out recycleOutcome
	if c.telemetry {
		out.Tel = NewTelemetry(0)
	}
	res, err := RunSourceTelemetryContext(nil, rec.Replay(), c.cfg, recycleWindow, c.degree, out.Tel)
	if err != nil {
		panic(err)
	}
	out.Res = res
	return out
}

// emptyPools drops every recycled machine and table: a sync.Pool keeps its
// contents across one GC (as victims) and drops them at the next.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// TestParityRecycledMachine runs every machine family on a machine and
// tables that a different benchmark's run of the same configuration has
// just dirtied, and requires the outcome to equal a run on fresh tables.
func TestParityRecycledMachine(t *testing.T) {
	target := bench(t, "gcc").Record(recycleWindow)
	dirtier := bench(t, "em3d").Record(recycleWindow)
	for _, c := range recycleCells(t) {
		emptyPools()
		fresh := c.run(target)
		c.run(dirtier)
		recycled := c.run(target)
		if !reflect.DeepEqual(fresh, recycled) {
			t.Errorf("%s: run on recycled machine differs from fresh:\nfresh    %+v\nrecycled %+v",
				c.name, fresh.Res, recycled.Res)
		}
	}
}

// TestReleasedMachineAcquiresFresh dirties a machine of each mode, releases
// it, and requires what the pools hand out next to equal fresh
// allocations: the shell zero apart from empty structures, and each table
// equal to a new one of its geometry.
func TestReleasedMachineAcquiresFresh(t *testing.T) {
	rec := bench(t, "gcc").Record(recycleWindow)
	for _, cfg := range []Config{DefaultSync(), DefaultAdaptive(ProgramAdaptive), phaseCfg()} {
		m := NewMachineSource(rec.Replay(), cfg)
		m.Run(recycleWindow)
		icache, dcache, l2 := m.icache.Geometry(), m.dcache.Geometry(), m.l2.Geometry()
		var pred timing.BPredGeom
		if m.syncPred != nil {
			pred = m.syncPred.Geom()
		}
		m.release()
		if got, want := acquireMachine(), (&Machine{structures: newStructures()}); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recycled machine shell is not fresh", cfg.Mode)
		}
		for _, geo := range []cache.Geometry{icache, dcache, l2} {
			if !reflect.DeepEqual(acquireCache(geo), cache.New(geo)) {
				t.Errorf("%s: recycled %s cache is not fresh", cfg.Mode, geo.Name)
			}
		}
		if cfg.Mode == Synchronous {
			if !reflect.DeepEqual(acquirePredictor(pred), bpred.New(pred)) {
				t.Errorf("%s: recycled predictor is not fresh", cfg.Mode)
			}
		} else if !reflect.DeepEqual(acquireBank(cfg.ICache), bpred.NewBank(cfg.ICache)) {
			t.Errorf("%s: recycled predictor bank is not fresh", cfg.Mode)
		}
	}
}

// TestParityRecycledMachineConcurrent interleaves cells of shared
// geometries on two goroutines, so tables pass between concurrent runs
// (meaningful under -race: make parity runs it so). Every result must
// equal the sequential fresh-table run.
func TestParityRecycledMachineConcurrent(t *testing.T) {
	recs := []*workload.Recording{
		bench(t, "gcc").Record(recycleWindow),
		bench(t, "em3d").Record(recycleWindow),
	}
	var cells []recycleCell
	for _, c := range recycleCells(t) {
		// Two Table-3 rows share every D-cache geometry; the adaptive
		// cells share theirs outright.
		if c.cfg.Mode != Synchronous || c.cfg.SyncICache < 2 {
			cells = append(cells, c)
		}
	}
	want := make([][]recycleOutcome, len(recs))
	for r, rec := range recs {
		for _, c := range cells {
			emptyPools()
			want[r] = append(want[r], c.run(rec))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2*len(cells))
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cells {
				// The goroutines walk the cells in opposite orders and
				// replay different benchmarks, so the same geometries are
				// in use on both sides at once.
				ci := i
				if g == 1 {
					ci = len(cells) - 1 - i
				}
				r := (g + i) % len(recs)
				if got := cells[ci].run(recs[r]); !reflect.DeepEqual(got, want[r][ci]) {
					errs <- fmt.Sprintf("goroutine %d, %s on %s: differs from fresh run", g, cells[ci].name, recs[r].Spec().Name)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// Steady-state allocation budgets of one window-1000 RunSource cell, in
// bytes, once the pools are warm: the Result, the clocks, the replay
// cursor and (Phase-Adaptive) the controller and ILP tracker. Measured at
// ~0.7 KB synchronous and ~1.6 KB Phase-Adaptive; before machines were
// recycled a cell allocated ~480 KB, and the Table-3 copy on every I-cache
// line change alone was tens of KB. The budgets leave room for one pool
// miss in the 200 measured cells, not for a hot-loop allocation or for a
// release that stops recycling.
const (
	syncCellAllocBudget  = 4 << 10
	phaseCellAllocBudget = 8 << 10
)

func TestRunSourceCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	rec := bench(t, "gcc").Record(1000)
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget uint64
	}{
		{"synchronous", DefaultSync(), syncCellAllocBudget},
		{"phase-adaptive", phaseCfg(), phaseCellAllocBudget},
	} {
		const runs = 200
		for i := 0; i < 5; i++ { // warm the pools
			RunSource(rec.Replay(), tc.cfg, 1000)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			RunSource(rec.Replay(), tc.cfg, 1000)
		}
		runtime.ReadMemStats(&after)
		perCell := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d bytes per window-1000 cell", tc.name, perCell)
		if perCell > tc.budget {
			t.Errorf("%s: a warm window-1000 RunSource cell allocates %d bytes, budget %d",
				tc.name, perCell, tc.budget)
		}
	}
}
