// Intra-run parallel execution: one simulated machine decomposed into a
// software pipeline of up to three stages connected by single-producer/
// single-consumer rings, producing results bit-identical to Machine.Run.
//
// The decomposition leans on the Accounting Cache's defining property
// (paper Section 3.1): MRU state evolution is configuration independent.
// cache.AccessPos performs the full functional update and returns only the
// MRU position; cache.ClassifyPos recovers the timing class for any
// partitioning. A functional stage can therefore run arbitrarily far ahead
// of the timing stage — it never needs to know the configuration in force
// when the access is eventually timed. The timing stage classifies shipped
// positions under *shadow* configurations that replicate, in exact commit
// order, every Configure call the sequential machine would have made.
//
// Stage assignment by degree (requested degrees above 3 clamp to 3 — the
// pipeline has no fourth stage to split out):
//
//	degree 2:  [generate + functional] → [timing]
//	degree 3:  [generate] → [functional] → [timing]
//
// The generate stage drives the instruction source. The functional stage
// owns the three accounting caches and the ILP tracker; per instruction it
// ships the MRU positions of the accesses the timing stage will need, the
// tracker's interval-complete flag, and — at accounting-interval
// boundaries — the cache statistics snapshot the controller consumes. The
// timing stage is the caller's goroutine running the ordinary step() loop
// with m.par-gated access points; it owns everything else: clocks, windows,
// functional-unit pools, branch predictors, the controller, PLL draws and
// all of Stats. One copy of the timing logic serves both modes.
//
// Whether the functional stage must also touch the L2 for a given L1 miss
// is decided by a mode-dependent rule proven equivalent to the timing
// stage's classification: in PhaseAdaptive mode every Configure call in the
// machine passes bEnabled=true (forced false only when waysA equals the
// physical way count, where no position can classify as Miss), so an access
// misses iff its MRU position is -1; in the static modes the configuration
// never changes after construction, so the run-start classification is
// exact. Shipped sentinel positions are defensive: consuming one panics,
// turning any violation of this invariant into a loud failure instead of a
// silent divergence.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gals/internal/cache"
	"gals/internal/isa"
	"gals/internal/queue"
	"gals/internal/workload"
)

// maxParallelDegree is the deepest stage decomposition the machine supports.
const maxParallelDegree = 3

// MaxParallelDegree is the deepest stage decomposition RunParallel
// supports — the largest value ParallelDegree can return. Callers sizing a
// degree cap from external capacity (pool slots, CPU budget) can pass it
// as the "no cap" upper bound.
const MaxParallelDegree = maxParallelDegree

// ParallelDegree resolves a requested intra-run parallelism degree: values
// above the pipeline depth clamp to maxParallelDegree, and a requested
// degree <= 0 means "auto" — use the host's CPU count (clamped the same
// way). RunParallel itself performs no CPU-count clamping, so an explicit
// degree exercises the full parallel machinery even on a single-core host.
func ParallelDegree(requested int) int {
	if requested <= 0 {
		requested = runtime.NumCPU()
	}
	if requested > maxParallelDegree {
		requested = maxParallelDegree
	}
	if requested < 1 {
		requested = 1
	}
	return requested
}

const (
	// parRingCap is the instruction-record ring capacity: the functional
	// stage's maximum lead over the timing stage, in instructions.
	parRingCap = 4096
	// parRingBatch is how many slots a ring cursor advances before it is
	// published; batching keeps the per-instruction atomic traffic amortized.
	parRingBatch = 64
	// parNoAccess marks a position field whose access never happened.
	// Consuming it is a pipeline-desync bug and panics.
	parNoAccess = int8(-2)
)

// parRec is one instruction in flight between the functional and timing
// stages: the decoded instruction plus the MRU positions of every cache
// access the timing stage will classify, and the tracker's interval flag.
type parRec struct {
	in   isa.Inst
	iPos int8 // I-cache access position, or parNoAccess
	iL2  int8 // L2 position of the I-side line fill, or parNoAccess
	dPos int8 // D-cache access position (loads and stores), or parNoAccess
	dL2  int8 // L2 position of the D-side line fill, or parNoAccess
	fire bool // ILP tracker completed its interval at this instruction
}

// parStats is one accounting-interval snapshot of the three caches, taken
// by the functional stage at the exact boundary instruction.
type parStats struct {
	i, d, l2 cache.Stats
}

// parIdle backs a ring wait: yield the processor so the peer stage can run
// (essential when hardware parallelism is scarce), falling back to a short
// sleep once yielding has clearly not helped.
func parIdle(spin int) {
	if spin < 256 {
		runtime.Gosched()
	} else {
		time.Sleep(5 * time.Microsecond)
	}
}

// spscRing is a bounded single-producer/single-consumer ring with batched
// cursor publication. Slot data is written before the head store and read
// before the tail store, so the atomic cursors carry the happens-before
// edges; both sides keep cached copies of the remote cursor and touch the
// shared line only when the cache runs out. Waits are abortable.
type spscRing[T any] struct {
	buf   []T
	mask  int64
	abort *atomic.Bool
	// onProdWait / onConsWait run once when the respective side starts
	// waiting: the hook where a stage flushes its *other* rings so the peer
	// it is waiting on can make progress (deadlock freedom).
	onProdWait func()
	onConsWait func()

	_    [64]byte
	head atomic.Int64 // producer: slots below head are published
	_    [64]byte
	tail atomic.Int64 // consumer: slots below tail are released
	_    [64]byte

	pHead, pPub, cachedTail int64 // producer-local
	cTail, cPub, cachedHead int64 // consumer-local
}

func newRing[T any](capacity int, abort *atomic.Bool) *spscRing[T] {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("core: ring capacity %d not a positive power of two", capacity))
	}
	return &spscRing[T]{buf: make([]T, capacity), mask: int64(capacity - 1), abort: abort}
}

// reserve returns the next slot to fill, waiting for space if the ring is
// full. Returns false only on abort.
func (r *spscRing[T]) reserve() (*T, bool) {
	if r.pHead-r.cachedTail >= int64(len(r.buf)) {
		r.cachedTail = r.tail.Load()
		if r.pHead-r.cachedTail >= int64(len(r.buf)) {
			r.flushProducer() // the consumer may be starved of these
			if r.onProdWait != nil {
				r.onProdWait()
			}
			for spin := 0; ; spin++ {
				if r.abort.Load() {
					return nil, false
				}
				r.cachedTail = r.tail.Load()
				if r.pHead-r.cachedTail < int64(len(r.buf)) {
					break
				}
				parIdle(spin)
			}
		}
	}
	return &r.buf[r.pHead&r.mask], true
}

// advance publishes the slot returned by reserve, batched.
func (r *spscRing[T]) advance() {
	r.pHead++
	if r.pHead-r.pPub >= parRingBatch {
		r.head.Store(r.pHead)
		r.pPub = r.pHead
	}
}

// flushProducer publishes every reserved-and-advanced slot immediately.
func (r *spscRing[T]) flushProducer() {
	if r.pHead != r.pPub {
		r.head.Store(r.pHead)
		r.pPub = r.pHead
	}
}

// next returns the oldest unconsumed slot, waiting for data if the ring is
// empty. Returns false only on abort.
func (r *spscRing[T]) next() (*T, bool) {
	if r.cTail == r.cachedHead {
		r.cachedHead = r.head.Load()
		if r.cTail == r.cachedHead {
			r.flushConsumer() // the producer may be starved of space
			if r.onConsWait != nil {
				r.onConsWait()
			}
			for spin := 0; ; spin++ {
				if r.abort.Load() {
					return nil, false
				}
				r.cachedHead = r.head.Load()
				if r.cTail != r.cachedHead {
					break
				}
				parIdle(spin)
			}
		}
	}
	return &r.buf[r.cTail&r.mask], true
}

// release frees the slot returned by next, batched.
func (r *spscRing[T]) release() {
	r.cTail++
	if r.cTail-r.cPub >= parRingBatch {
		r.tail.Store(r.cTail)
		r.cPub = r.cTail
	}
}

// flushConsumer releases every consumed slot immediately.
func (r *spscRing[T]) flushConsumer() {
	if r.cTail != r.cPub {
		r.tail.Store(r.cTail)
		r.cPub = r.cTail
	}
}

// push appends one value with immediate publication (low-rate rings).
func (r *spscRing[T]) push(v T) bool {
	s, ok := r.reserve()
	if !ok {
		return false
	}
	*s = v
	r.advance()
	r.flushProducer()
	return true
}

// pop removes one value with immediate release (low-rate rings).
func (r *spscRing[T]) pop() (T, bool) {
	var zero T
	s, ok := r.next()
	if !ok {
		return zero, false
	}
	v := *s
	r.release()
	r.flushConsumer()
	return v, true
}

// parAbort unwinds the timing stage's step loop when the run is torn down
// mid-flight (context cancellation or a worker panic); runParallel recovers
// it at the loop boundary.
type parAbort struct{}

// parState is the per-run parallel execution state hung off Machine.par; a
// nil par means sequential execution and every gate in step() compiles to
// one predictable branch.
type parState struct {
	abort atomic.Bool

	recs    *spscRing[parRec]          // functional → timing: instructions
	gen     *spscRing[isa.Inst]        // generate → functional (degree 3)
	samples *spscRing[[4]queue.Sample] // functional → timing: tracker fires
	stats   *spscRing[parStats]        // functional → timing: interval snapshots
	bounds  *spscRing[int64]           // timing → functional: next boundary count

	// cur is the record the timing stage is currently executing.
	cur *parRec

	// Shadow configurations: the timing stage's view of the three caches'
	// partitioning, updated wherever the sequential machine would call
	// Configure. The cache objects themselves belong to the functional
	// stage for the duration of the run.
	iWaysA, dWaysA, l2WaysA int
	iB, dB, l2B             bool
	iWays, dWays, l2Ways    int // physical way counts (the forcing rule)

	wg      sync.WaitGroup
	panicMu sync.Mutex
	panics  []any
}

// setI mirrors icache.Configure onto the shadow, including the validation
// panic and the waysA==Ways forcing rule.
func (p *parState) setI(waysA int, b bool) {
	if waysA < 1 || waysA > p.iWays {
		panic(fmt.Sprintf("cache L1I: A partition %d ways out of range 1..%d", waysA, p.iWays))
	}
	if waysA == p.iWays {
		b = false
	}
	p.iWaysA, p.iB = waysA, b
}

// setD mirrors the paired dcache.Configure / l2.Configure onto the shadows.
func (p *parState) setD(waysA int, b bool) {
	if waysA < 1 || waysA > p.dWays {
		panic(fmt.Sprintf("cache L1D: A partition %d ways out of range 1..%d", waysA, p.dWays))
	}
	db := b
	if waysA == p.dWays {
		db = false
	}
	p.dWaysA, p.dB = waysA, db
	if waysA < 1 || waysA > p.l2Ways {
		panic(fmt.Sprintf("cache L2: A partition %d ways out of range 1..%d", waysA, p.l2Ways))
	}
	lb := b
	if waysA == p.l2Ways {
		lb = false
	}
	p.l2WaysA, p.l2B = waysA, lb
}

func (p *parState) classI(pos int8) cache.Class {
	if pos == parNoAccess {
		panic("core: parallel desync: I-cache class consumed with no shipped access")
	}
	return cache.ClassifyPos(int(pos), p.iWaysA, p.iB)
}

func (p *parState) classD(pos int8) cache.Class {
	if pos == parNoAccess {
		panic("core: parallel desync: D-cache class consumed with no shipped access")
	}
	return cache.ClassifyPos(int(pos), p.dWaysA, p.dB)
}

func (p *parState) classL2(pos int8) cache.Class {
	if pos == parNoAccess {
		panic("core: parallel desync: L2 class consumed with no shipped access")
	}
	return cache.ClassifyPos(int(pos), p.l2WaysA, p.l2B)
}

// guard runs one worker stage, converting a panic into an abort that the
// other stages (and the caller) observe.
func (p *parState) guard(f func()) {
	defer func() {
		if e := recover(); e != nil {
			p.panicMu.Lock()
			p.panics = append(p.panics, e)
			p.panicMu.Unlock()
			p.abort.Store(true)
		}
		p.wg.Done()
	}()
	f()
}

// startParallel builds the rings and launches the worker stages. The
// caller's goroutine becomes the timing stage.
func (m *Machine) startParallel(n int64, degree int) *parState {
	p := &parState{}
	p.recs = newRing[parRec](parRingCap, &p.abort)
	p.samples = newRing[[4]queue.Sample](2048, &p.abort)
	p.stats = newRing[parStats](64, &p.abort)
	p.bounds = newRing[int64](8, &p.abort)

	// Before the functional stage blocks on any secondary ring it must
	// publish its produced instruction records — they are what lets the
	// timing stage reach the point that unblocks it.
	flushRecs := p.recs.flushProducer
	p.samples.onProdWait = flushRecs
	p.stats.onProdWait = flushRecs
	p.bounds.onConsWait = flushRecs

	p.iWays, p.iWaysA, p.iB = m.icache.Geometry().Ways, m.icache.WaysA(), m.icache.BEnabled()
	p.dWays, p.dWaysA, p.dB = m.dcache.Geometry().Ways, m.dcache.WaysA(), m.dcache.BEnabled()
	p.l2Ways, p.l2WaysA, p.l2B = m.l2.Geometry().Ways, m.l2.WaysA(), m.l2.BEnabled()

	// Seed the functional stage's first accounting boundary (-1: never).
	first := int64(-1)
	if m.cacheEvery > 0 && !m.cfg.DisableCacheAdapt {
		first = m.intervalStart + m.cacheEvery
	}
	p.bounds.push(first)

	m.par = p
	if degree >= 3 {
		p.gen = newRing[isa.Inst](parRingCap, &p.abort)
		p.gen.onConsWait = flushRecs
		p.wg.Add(1)
		go p.guard(func() { m.genLoop(p, n) })
	}
	p.wg.Add(1)
	go p.guard(func() { m.funcLoop(p, n) })
	return p
}

// genLoop is the generate stage: it drives the instruction source.
func (m *Machine) genLoop(p *parState, n int64) {
	g := p.gen
	for i := int64(0); i < n; i++ {
		if p.abort.Load() {
			return
		}
		slot, ok := g.reserve()
		if !ok {
			return
		}
		m.trace.Next(slot)
		g.advance()
	}
	g.flushProducer()
}

// funcLoop is the functional stage: it evolves the three accounting caches
// and the ILP tracker in exact instruction order, shipping per-access MRU
// positions and interval events to the timing stage.
func (m *Machine) funcLoop(p *parState, n int64) {
	icache, dcache, l2 := m.icache, m.dcache, m.l2
	tracker := m.tracker
	trackIQ := tracker != nil && !m.cfg.DisableIQAdapt
	phase := m.cfg.Mode == PhaseAdaptive

	// Static-mode classification state for the L2-occurrence rule; in
	// PhaseAdaptive mode the rule is simply pos < 0 (see package comment).
	iW, iB := icache.WaysA(), icache.BEnabled()
	dW, dB := dcache.WaysA(), dcache.BEnabled()

	// miss reports whether the timing stage will classify this position as
	// a Miss — i.e. whether the next-level access happens functionally.
	miss := func(pos, waysA int, b bool) bool {
		if phase {
			return pos < 0
		}
		return cache.ClassifyPos(pos, waysA, b) == cache.Miss
	}

	// Replica of the timing stage's fetch-group state machine (a pure
	// function of the PC stream), deciding when the I-cache is accessed.
	var curLine uint64
	lineLeft := 0

	nextB, ok := p.bounds.pop()
	if !ok {
		return
	}

	for count := int64(1); count <= n; count++ {
		if p.abort.Load() {
			return
		}
		rec, ok := p.recs.reserve()
		if !ok {
			return
		}
		if p.gen != nil {
			src, ok := p.gen.next()
			if !ok {
				return
			}
			rec.in = *src
			p.gen.release()
		} else {
			m.trace.Next(&rec.in)
		}
		in := &rec.in
		rec.iPos, rec.iL2, rec.dPos, rec.dL2, rec.fire = parNoAccess, parNoAccess, parNoAccess, parNoAccess, false

		// Fetch: a new line accesses the I-cache (and the L2 on a miss).
		line := in.PC >> 6
		if line != curLine || lineLeft == 0 {
			if line != curLine {
				pos := icache.AccessPos(in.PC, false)
				rec.iPos = int8(pos)
				if miss(pos, iW, iB) {
					rec.iL2 = int8(l2.AccessPos(in.PC&^uint64(L2LineBytes-1), false))
				}
			}
			curLine = line
			lineLeft = DecodeWidth
		}
		lineLeft--

		// ILP tracking at rename.
		if trackIQ && tracker.Observe(in) {
			if !p.samples.push(tracker.Samples()) {
				return
			}
			tracker.Reset()
			rec.fire = true
		}

		// Memory operations: L1D access, L2 on a (timed) miss. Stores are
		// write-allocate through the L2, matching execStore.
		switch in.Class {
		case isa.Load:
			pos := dcache.AccessPos(in.Addr, false)
			rec.dPos = int8(pos)
			if miss(pos, dW, dB) {
				rec.dL2 = int8(l2.AccessPos(in.Addr, false))
			}
		case isa.Store:
			pos := dcache.AccessPos(in.Addr, true)
			rec.dPos = int8(pos)
			if miss(pos, dW, dB) {
				rec.dL2 = int8(l2.AccessPos(in.Addr, true))
			}
		}
		p.recs.advance()

		// Accounting-interval boundary: snapshot and reset at the exact
		// instruction the timing stage will decide on, then learn the next
		// boundary (published by the timing stage after its decision).
		if count == nextB {
			if !p.stats.push(parStats{i: icache.Stats(), d: dcache.Stats(), l2: l2.Stats()}) {
				return
			}
			icache.ResetStats()
			dcache.ResetStats()
			l2.ResetStats()
			nextB, ok = p.bounds.pop()
			if !ok {
				return
			}
		}
	}
	p.recs.flushProducer()
}

// popSamples hands the timing stage the tracker samples for a fired
// interval; called from step() at the firing instruction's rename.
func (p *parState) popSamples() [4]queue.Sample {
	s, ok := p.samples.pop()
	if !ok {
		panic(parAbort{})
	}
	return s
}

// popStats hands the timing stage the cache statistics snapshot for the
// accounting boundary it just reached.
func (p *parState) popStats() parStats {
	s, ok := p.stats.pop()
	if !ok {
		panic(parAbort{})
	}
	return s
}

// publishBoundary tells the functional stage the next accounting boundary
// (in committed instructions; -1 means none will ever come).
func (p *parState) publishBoundary(count int64) {
	p.bounds.push(count) // only fails on abort, which unwinds elsewhere
}

// nextBoundary computes the instruction count of the next accounting
// decision from the just-re-read interval, or -1 when decisions are off.
func (m *Machine) nextBoundary() int64 {
	if m.cacheEvery > 0 && !m.cfg.DisableCacheAdapt {
		return m.intervalStart + m.cacheEvery
	}
	return -1
}

// RunParallel executes n instructions with intra-run parallelism of the
// given degree and returns a Result bit-identical to Run's. Degree <= 1
// runs sequentially; degrees above the pipeline depth clamp to 3. The
// degree is an execution-engine knob only: it never appears in the Result.
func (m *Machine) RunParallel(n int64, degree int) *Result {
	res, err := m.runParallel(nil, n, degree)
	if err != nil {
		panic(err) // unreachable: no context, and worker panics propagate
	}
	return res
}

// RunParallelContext is RunParallel with cooperative cancellation at the
// same quantum granularity as RunContext. On cancellation the pipeline is
// torn down, the partial result discarded and ctx.Err() returned.
func (m *Machine) RunParallelContext(ctx context.Context, n int64, degree int) (*Result, error) {
	if degree > maxParallelDegree {
		degree = maxParallelDegree
	}
	if degree <= 1 {
		return m.RunContext(ctx, n)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return m.runParallel(ctx, n, degree)
}

// runParallel drives the timing stage on the caller's goroutine and joins
// the worker stages before returning.
func (m *Machine) runParallel(ctx context.Context, n int64, degree int) (*Result, error) {
	if degree > maxParallelDegree {
		degree = maxParallelDegree
	}
	if degree <= 1 {
		if ctx != nil {
			return m.RunContext(ctx, n)
		}
		return m.Run(n), nil
	}
	p := m.startParallel(n, degree)

	var err error
	var timingPanic any
	func() {
		defer func() {
			if e := recover(); e != nil {
				if _, ok := e.(parAbort); !ok {
					timingPanic = e
				}
				p.abort.Store(true)
			}
		}()
		checkCtx := ctx != nil && ctx.Done() != nil
		for done := int64(0); done < n; {
			q := n - done
			if q > cancelQuantum {
				q = cancelQuantum
			}
			for i := int64(0); i < q; i++ {
				rec, ok := p.recs.next()
				if !ok {
					panic(parAbort{})
				}
				p.cur = rec
				m.step(&rec.in)
				p.recs.release()
			}
			done += q
			if checkCtx {
				select {
				case <-ctx.Done():
					err = ctx.Err()
					panic(parAbort{})
				default:
				}
			}
		}
		p.recs.flushConsumer()
	}()

	p.wg.Wait()
	m.par = nil
	if timingPanic != nil {
		panic(timingPanic)
	}
	if len(p.panics) > 0 {
		panic(p.panics[0])
	}
	if err != nil {
		return nil, err
	}

	// Fold the final shadow configurations back onto the cache objects so
	// the post-run machine state matches a sequential run's.
	m.icache.Configure(p.iWaysA, p.iB)
	m.dcache.Configure(p.dWaysA, p.dB)
	m.l2.Configure(p.l2WaysA, p.l2B)

	noteParallelRun(degree)
	return m.result(), nil
}

// RunWorkloadParallel is RunWorkload with intra-run parallelism.
func RunWorkloadParallel(spec workload.Spec, cfg Config, n int64, degree int) *Result {
	res, _ := runOwned(nil, NewMachine(spec, cfg), n, degree)
	return res
}

// RunSourceParallel is RunSource with intra-run parallelism.
func RunSourceParallel(src InstSource, cfg Config, n int64, degree int) *Result {
	res, _ := runOwned(nil, NewMachineSource(src, cfg), n, degree)
	return res
}

// RunWorkloadParallelContext is RunWorkloadContext with intra-run
// parallelism.
func RunWorkloadParallelContext(ctx context.Context, spec workload.Spec, cfg Config, n int64, degree int) (*Result, error) {
	return runOwned(ctx, NewMachine(spec, cfg), n, degree)
}

// RunSourceParallelContext is RunSourceContext with intra-run parallelism.
func RunSourceParallelContext(ctx context.Context, src InstSource, cfg Config, n int64, degree int) (*Result, error) {
	return runOwned(ctx, NewMachineSource(src, cfg), n, degree)
}
