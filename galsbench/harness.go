package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// op is one timed operation of a workload.
type op struct {
	dur time.Duration
	// cold marks a serve_mixed request that simulates and stores its
	// result; the rest of its requests are warm cache hits. The other
	// workloads have one kind of op and leave it false.
	cold bool
	// insts is the number of instructions the op simulated.
	insts int64
	// traced marks an op run with spans in a traced run.
	traced bool
}

// runStats is everything one workload run measured, before folding into
// metrics.
type runStats struct {
	setups []time.Duration
	ops    []op
	// elapsed is the wall time of the op phase.
	elapsed time.Duration
	// allocBytes is the Go heap allocated during the op phase.
	allocBytes uint64
	// rssMB are resident-set samples taken during the run.
	rssMB []float64
	// refMS are the speed reference's pass times taken between ops.
	refMS     []float64
	attempted int
	failed    int
	failures  []string
}

// fail records one failed op with a reason kept for the log.
func (s *runStats) fail(format string, a ...any) {
	s.failed++
	if len(s.failures) < 20 {
		s.failures = append(s.failures, fmt.Sprintf(format, a...))
	}
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. xs need not be sorted; it is not modified.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 { return nearestRank(xs, 50) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// endToEnd folds a run into the end-to-end metrics every workload prints
// (bounded in BENCHMARK.json) and the unbounded ones it prints on its
// diagnostics line. Percentiles are nearest-rank.
//
// The bounded set holds only statistics that repeat across seeds and runs
// on a shared 2-vCPU host whose single-thread speed shifts by up to 1.7x,
// both every few seconds and for minutes at a time: the op latency's 90th
// percentile divided by the run's median speed-reference sample ("xref"),
// plus per-op allocation and the resident set. Raw times and mean
// throughput move with the host, and a median moves with the share of the
// run spent in the host's slow mode, so they are diagnostics (see
// README.md). The warm/cold split exists only where a workload has both
// kinds of op (serve_mixed) and is a diagnostic too, because every
// workload must print every bounded metric.
func endToEnd(s *runStats) (bounded, diag map[string]metric) {
	var all, warm, cold []time.Duration
	var insts int64
	var perInst []float64
	for _, o := range s.ops {
		all = append(all, o.dur)
		insts += o.insts
		if o.insts > 0 {
			perInst = append(perInst, float64(o.dur.Nanoseconds())/float64(o.insts))
		}
		if o.cold {
			cold = append(cold, o.dur)
		} else {
			warm = append(warm, o.dur)
		}
	}
	allMS := millis(all)
	setup := make([]float64, len(s.setups))
	for i, d := range s.setups {
		setup[i] = d.Seconds()
	}
	var rss syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &rss) // cannot fail for RUSAGE_SELF
	ref := median(s.refMS)
	p50, p90 := nearestRank(allMS, 50), nearestRank(allMS, 90)
	bounded = map[string]metric{
		"setup_s":         {median(setup), "s"},
		"op_p90_xref":     {p90 / ref, "xref"},
		"alloc_kb_per_op": {float64(s.allocBytes) / 1024 / float64(len(all)), "KiB"},
		"rss_p90_mb":      {nearestRank(s.rssMB, 90), "MiB"},
	}
	diag = map[string]metric{
		"op_p50_ms":        {p50, "ms"},
		"op_p50_xref":      {p50 / ref, "xref"},
		"op_p90_ms":        {p90, "ms"},
		"ops_per_s":        {float64(len(all)) / s.elapsed.Seconds(), "1/s"},
		"ns_per_inst":      {nearestRank(perInst, 90), "ns"},
		"mean_ns_per_inst": {float64(s.elapsed.Nanoseconds()) / float64(insts), "ns"},
		"peak_rss_mb":      {float64(rss.Maxrss) / 1024, "MiB"},
		"harness.xref_ms":  {ref, "ms"},
		"ops":              {float64(len(all)), "count"},
		"xref_samples":     {float64(len(s.refMS)), "count"},
	}
	if len(cold) > 0 {
		for name, ds := range map[string][]time.Duration{"warm": warm, "cold": cold} {
			ms := millis(ds)
			for _, p := range []int{50, 90} {
				v := nearestRank(ms, float64(p))
				diag[fmt.Sprintf("%s_p%d_ms", name, p)] = metric{v, "ms"}
				diag[fmt.Sprintf("%s_p%d_xref", name, p)] = metric{v / ref, "xref"}
			}
			diag[name+"_samples"] = metric{float64(len(ds)), "count"}
		}
	}
	return bounded, diag
}

// totalAlloc returns the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timeIt runs fn and returns its wall time.
func timeIt(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks. ok is false where /proc/stat is absent.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of total.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// hostWatch samples the host's noise diagnostics around a run: the share of
// CPU time the hypervisor stole, and the speed of a frozen reference
// kernel before and after.
type hostWatch struct {
	steal0, total0 uint64
	ok             bool
	ref            []float64
}

func startHostWatch() *hostWatch {
	h := &hostWatch{}
	h.ref = append(h.ref, refKernelNS()...)
	h.steal0, h.total0, h.ok = cpuTicks()
	return h
}

// finish returns steal_frac over the run (NaN where /proc/stat is absent)
// and the median reference-kernel time in ns over both samples.
func (h *hostWatch) finish() (stealFrac, refNS float64) {
	steal, total, ok := cpuTicks()
	stealFrac = math.NaN()
	if h.ok && ok && total > h.total0 {
		stealFrac = float64(steal-h.steal0) / float64(total-h.total0)
	}
	h.ref = append(h.ref, refKernelNS()...)
	return stealFrac, median(h.ref)
}

// refBlock is the frozen reference kernel's input: a sha256 over 64 KiB
// whose cost depends on nothing the program under test does.
var refBlock = func() []byte {
	b := make([]byte, 64<<10)
	for i := range b {
		b[i] = byte(i * 131)
	}
	return b
}()

// refKernelNS times 25 sha256 passes over refBlock and returns each one's
// duration in ns.
func refKernelNS() []float64 {
	out := make([]float64, 25)
	for i := range out {
		t0 := time.Now()
		sum := sha256.Sum256(refBlock)
		out[i] = float64(time.Since(t0).Nanoseconds())
		refSink ^= sum[0]
	}
	return out
}

var refSink byte

// spin busy-waits for d: a fixed-cost op for calibrating the harness.
func spin(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// calibrate runs n fixed-cost ops of length d through the same op loop the
// workloads use and returns the ops it counted and their median duration.
func calibrate(n int, d time.Duration) (count int, med time.Duration) {
	var s runStats
	runOps(&s, nil, time.Hour, n, func(i int) op {
		return op{dur: timeIt(func() { spin(d) }), insts: 1}
	})
	ds := make([]float64, len(s.ops))
	for i, o := range s.ops {
		ds[i] = float64(o.dur)
	}
	return len(s.ops), time.Duration(median(ds))
}

// runOps is the closed-loop driver of the single-client workloads: it
// issues ops one after another until budget has elapsed or max ops (when
// max > 0) have run, and records each op, the op phase's wall time and its
// heap allocation in s. Between ops it lets ref (if not nil) take a pass.
func runOps(s *runStats, ref *speedRef, budget time.Duration, max int, next func(i int) op) {
	a0 := totalAlloc()
	t0 := time.Now()
	for i := 0; (max <= 0 || i < max) && time.Since(t0) < budget; i++ {
		s.attempted++
		s.ops = append(s.ops, next(i))
		ref.tick()
	}
	s.elapsed = time.Since(t0)
	s.allocBytes = totalAlloc() - a0
}

// rssMB reads the process's resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), true
}

// sampleRSS records the resident set every 50ms into s.rssMB until the
// returned stop function is called; stop waits for the sampler to exit.
func sampleRSS(s *runStats) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if v, ok := rssMB(); ok {
					s.rssMB = append(s.rssMB, v)
				}
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// speedRef is a frozen reference kernel shaped like the simulator's inner
// loop: a 2-bit predictor table indexed by PC and global history, and an
// 8-way set-associative tag array with move-to-front updates, driven by a
// fixed synthetic stream of branches and addresses. It never changes with
// the program. On the shared host this benchmark was built on, its pass
// time follows the host's slow and fast phases about half as far as the
// simulator does, where sha256 barely moves (README.md, Noise); latencies
// divided by it compare across runs taken in different phases.
//
// Each sample is the second of two back-to-back passes, so it starts with
// the kernel's tables in cache whatever the program left behind. A workload
// whose ops run on several goroutines sets quiet: a sample then holds it,
// so no op is in flight while the reference runs.
type speedRef struct {
	mu      sync.Mutex
	quiet   sync.Locker
	last    time.Time
	pcs     []uint64
	lines   []uint64
	taken   []bool
	pht     []uint8
	tags    []uint64
	sink    int
	samples []float64
}

const (
	// refEvents is one pass's stream length: about 1.2ms of work with the tables in cache.
	refEvents = 25_000
	// refEvery is the least time between two samples, so the reference
	// costs about one percent of a run.
	refEvery = 250 * time.Millisecond
)

func newSpeedRef() *speedRef {
	r := rand.New(rand.NewPCG(9, 9))
	k := &speedRef{
		pcs: make([]uint64, refEvents), lines: make([]uint64, refEvents), taken: make([]bool, refEvents),
		pht: make([]uint8, 1<<16), tags: make([]uint64, 4096*8),
	}
	for i := range k.pcs {
		k.pcs[i] = uint64(r.IntN(1<<14)) * 4
		k.lines[i] = uint64(r.IntN(1 << 16))
		if r.IntN(4) == 0 {
			k.lines[i] = uint64(r.IntN(1 << 9))
		}
		k.taken[i] = r.IntN(3) != 0
	}
	return k
}

// pass runs the stream once and returns its duration.
func (k *speedRef) pass() time.Duration {
	t0 := time.Now()
	var hist uint64
	for i, pc := range k.pcs {
		idx := (pc ^ hist) & (1<<16 - 1)
		if (k.pht[idx] >= 2) != k.taken[i] {
			k.sink++
		}
		if k.taken[i] {
			hist = hist<<1 | 1
			if k.pht[idx] < 3 {
				k.pht[idx]++
			}
		} else {
			hist <<= 1
			if k.pht[idx] > 0 {
				k.pht[idx]--
			}
		}
		set := (k.lines[i] & 4095) * 8
		ways := k.tags[set : set+8]
		pos := 7
		for w, t := range ways {
			if t == k.lines[i] {
				pos = w
				break
			}
		}
		copy(ways[1:pos+1], ways[:pos])
		ways[0] = k.lines[i]
	}
	return time.Since(t0)
}

// sample takes n samples, each a warm-up pass then a timed pass, holding
// quiet (if set) throughout. k.mu must be held.
func (k *speedRef) sample(n int) {
	if k.quiet != nil {
		k.quiet.Lock()
		defer k.quiet.Unlock()
	}
	for range n {
		k.pass()
		k.samples = append(k.samples, float64(k.pass())/float64(time.Millisecond))
	}
	k.last = time.Now()
}

// tick takes one sample if refEvery has passed since the last and no other
// goroutine is taking one. A nil speedRef does nothing.
func (k *speedRef) tick() {
	if k == nil || !k.mu.TryLock() {
		return
	}
	defer k.mu.Unlock()
	if time.Since(k.last) >= refEvery {
		k.sample(1)
	}
}

// burst takes n samples now: for workloads whose ops are too long to leave
// a gap every refEvery.
func (k *speedRef) burst(n int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.sample(n)
}

// perturb adds a known cost to every op, for checking that the xref
// latencies follow the program (README.md, Sensitivity). The zero value
// adds nothing.
type perturb struct {
	// spinFrac spins for this share of each op's own duration.
	spinFrac float64
	// heapMB allocates and writes this many MiB in each op and keeps the
	// block live until the next op replaces it: a larger footprint and
	// more garbage-collector work.
	heapMB int
	mu     sync.Mutex
	keep   []byte
}

// timeOp runs one op's work and returns its wall time, including the cost
// p adds (none for a nil p).
func (p *perturb) timeOp(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	if p != nil {
		work := time.Since(t0)
		if p.heapMB > 0 {
			b := make([]byte, p.heapMB<<20)
			for i := 0; i < len(b); i += 64 {
				b[i] = byte(i)
			}
			p.mu.Lock()
			p.keep = b
			p.mu.Unlock()
		}
		spin(time.Duration(p.spinFrac * float64(work)))
	}
	return time.Since(t0)
}
