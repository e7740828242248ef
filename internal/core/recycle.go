package core

import (
	"context"
	"sync"

	"gals/internal/bpred"
	"gals/internal/cache"
	"gals/internal/timing"
)

// Machine recycling. A Figure-6 pipeline is tens of thousands of short
// runs, and building every machine from scratch allocated ~480 KB of cache
// tags and predictor counters per run, so allocation and GC cost more than
// the simulation. A run that builds its own machine (the RunWorkload* and
// RunSource* entry points, all through runOwned) hands the machine back
// when it ends; the next newMachine takes it, and the tables of each
// geometry, from these pools and resets them instead of allocating.
//
// What sits in a pool holds no reference to any run: release zeroes the
// machine, keeping only its fixed-capacity structures, and tables are kept
// apart by geometry. Everything is reset when it is taken, to exactly the
// state a fresh allocation has. A pool may drop its contents at any GC; a
// miss simply allocates.
var (
	machinePool   sync.Pool // *Machine: zero apart from its structures
	bankPool      sync.Pool // *bpred.Bank: every bank has the Table 2 geometries
	cachePool     keyedPool[cache.Geometry, *cache.AccountingCache]
	predictorPool keyedPool[timing.BPredGeom, *bpred.Predictor]
)

// acquireMachine returns a machine with empty structures and every other
// field zero.
func acquireMachine() *Machine {
	m, _ := machinePool.Get().(*Machine)
	if m == nil {
		return &Machine{structures: newStructures()}
	}
	m.structures.reset()
	return m
}

// acquireCache returns an empty cache of geometry geo.
func acquireCache(geo cache.Geometry) *cache.AccountingCache {
	if c, ok := cachePool.get(geo); ok {
		c.Reset()
		return c
	}
	return cache.New(geo)
}

// acquirePredictor returns an untrained predictor of geometry g.
func acquirePredictor(g timing.BPredGeom) *bpred.Predictor {
	if p, ok := predictorPool.get(g); ok {
		p.Reset()
		return p
	}
	return bpred.New(g)
}

// acquireBank returns an untrained predictor bank serving active.
func acquireBank(active timing.ICacheConfig) *bpred.Bank {
	if b, _ := bankPool.Get().(*bpred.Bank); b != nil {
		b.Reset(active)
		return b
	}
	return bpred.NewBank(active)
}

// release hands a finished machine and its tables back to the pools. Only
// the entry point that built the machine may call it, after result() and
// after any parallel stages have joined: from here on another run may be
// using the memory. Result and Stats never point into it — result() copies
// Stats by value, and ReconfigEvents, the one slice, is left to the Result
// and starts from nil on the next run.
func (m *Machine) release() {
	for _, c := range [...]*cache.AccountingCache{m.icache, m.dcache, m.l2} {
		cachePool.put(c.Geometry(), c)
	}
	if p := m.syncPred; p != nil {
		predictorPool.put(p.Geom(), p)
	}
	if b := m.bank; b != nil {
		bankPool.Put(b)
	}
	*m = Machine{structures: m.structures}
	machinePool.Put(m)
}

// runOwned runs a machine that the calling entry point built and recycles
// it when the run ends, cancelled or not. Every RunWorkload*/RunSource*
// entry point goes through here; degree <= 1 runs sequentially and a nil
// ctx cannot cancel.
func runOwned(ctx context.Context, m *Machine, n int64, degree int) (*Result, error) {
	res, err := m.RunParallelContext(ctx, n, degree)
	m.release()
	return res, err
}

// keyedPool is a sync.Pool per key, for tables that are interchangeable
// only within one geometry. The key space is small (the Table 1-3 shapes),
// so the map only grows to a few dozen entries.
type keyedPool[K comparable, V any] struct {
	mu    sync.Mutex
	pools map[K]*sync.Pool
}

func (p *keyedPool[K, V]) pool(k K) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.pools[k]
	if q == nil {
		if p.pools == nil {
			p.pools = make(map[K]*sync.Pool)
		}
		q = new(sync.Pool)
		p.pools[k] = q
	}
	return q
}

func (p *keyedPool[K, V]) get(k K) (V, bool) {
	v, ok := p.pool(k).Get().(V)
	return v, ok
}

func (p *keyedPool[K, V]) put(k K, v V) { p.pool(k).Put(v) }
