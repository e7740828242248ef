package main

import (
	"testing"
	"time"

	"gals/internal/core"
	"gals/internal/workload"
)

func TestNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 10, 1}, {ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 100, 10},
		{[]float64{7}, 50, 7}, {[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2}, {[]float64{1, 2}, 50, 1}, {[]float64{1, 2}, 51, 2},
	} {
		if got := nearestRank(c.xs, c.p); got != c.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	// Over 1000 distinct samples the p-th percentile is exactly the
	// (10*p)-th smallest: the sample count enters the rank unrounded.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(999 - i)
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got, want := nearestRank(xs, p), 10*p-1; got != want {
			t.Errorf("nearestRank(1000 samples, %v) = %v, want %v", p, got, want)
		}
	}
	if ten[0] != 10 {
		t.Error("nearestRank sorted its input in place")
	}
}

// TestRunOpsCountsExactly checks op and instruction counting against a
// known number of ops.
func TestRunOpsCountsExactly(t *testing.T) {
	var s runStats
	runOps(&s, nil, time.Hour, 137, func(i int) op {
		return op{dur: time.Duration(i+1) * time.Microsecond, insts: int64(i), cold: i%10 == 0}
	})
	if s.attempted != 137 || len(s.ops) != 137 {
		t.Fatalf("attempted %d, recorded %d ops, want 137", s.attempted, len(s.ops))
	}
	_, diag := endToEnd(&s)
	wantInsts := int64(136 * 137 / 2)
	if got, want := diag["mean_ns_per_inst"].Value, float64(s.elapsed.Nanoseconds())/float64(wantInsts); got != want {
		t.Errorf("mean_ns_per_inst = %v, want %v", got, want)
	}
	if got, want := diag["ops_per_s"].Value, 137/s.elapsed.Seconds(); got != want {
		t.Errorf("ops_per_s = %v, want %v", got, want)
	}
	// Op i takes (i+1)µs for i instructions, so the per-instruction cost
	// falls with i; op 0 simulates nothing and is left out. The 90th
	// percentile of the 136 costs is the 123rd smallest: op 14's 15/14µs.
	if got, want := diag["ns_per_inst"].Value, 15e3/14; got != want {
		t.Errorf("ns_per_inst = %v, want %v", got, want)
	}
	// Op i takes (i+1)µs: the median of 137 is the 69th smallest, the
	// 90th percentile the 124th.
	if got := diag["op_p50_ms"].Value; got != 0.069 {
		t.Errorf("op_p50_ms = %v, want 0.069 (the 69th of 137)", got)
	}
	if got := diag["op_p90_ms"].Value; got != 0.124 {
		t.Errorf("op_p90_ms = %v, want 0.124 (the 124th of 137)", got)
	}
	s.refMS = []float64{0.5, 0.25, 2}
	if m, diag := endToEnd(&s); diag["op_p50_xref"].Value != 0.069/0.5 || m["op_p90_xref"].Value != 0.124/0.5 {
		t.Errorf("xref latencies %v, %v: want the percentiles over the median reference sample, 0.5ms", diag["op_p50_xref"].Value, m["op_p90_xref"].Value)
	}
	// Ops 0, 10, ..., 130 are cold: 14 of them, durations 1, 11, ..., 131µs.
	if got := diag["cold_p50_ms"].Value; got != 0.061 {
		t.Errorf("cold_p50_ms = %v, want 0.061", got)
	}
	if got := diag["cold_p90_ms"].Value; got != 0.121 {
		t.Errorf("cold_p90_ms = %v, want 0.121 (the 13th of 14)", got)
	}
	if got := diag["cold_samples"].Value + diag["warm_samples"].Value; got != 137 {
		t.Errorf("cold + warm samples = %v, want 137", got)
	}
	// A workload with one kind of op prints no warm/cold split.
	var one runStats
	runOps(&one, nil, time.Hour, 10, func(i int) op { return op{dur: time.Millisecond, insts: 1} })
	if _, diag := endToEnd(&one); diag["warm_samples"] != (metric{}) || diag["cold_p90_ms"] != (metric{}) {
		t.Errorf("single-kind run printed a warm/cold split: %v", diag)
	}
}

// TestCalibration runs fixed-cost ops through the harness: it must count
// exactly the ops it ran, time each at no less than its cost, and stop a
// budgeted loop at the expected iteration.
func TestCalibration(t *testing.T) {
	const d = 2 * time.Millisecond
	n, med := calibrate(20, d)
	if n != 20 {
		t.Errorf("calibration counted %d ops, want 20", n)
	}
	if med < d || med > d*3/2 {
		t.Errorf("calibration median %v for a %v op", med, d)
	}
	var s runStats
	runOps(&s, nil, 100*time.Millisecond, 0, func(int) op {
		return op{dur: timeIt(func() { spin(5 * time.Millisecond) }), insts: 1}
	})
	// Expected 20 iterations; a spin can overrun, never fall short, so a
	// slow host can finish one early.
	if len(s.ops) < 18 || len(s.ops) > 20 {
		t.Errorf("100ms budget of 5ms ops ran %d iterations, want 20", len(s.ops))
	}
	if s.elapsed < 100*time.Millisecond {
		t.Errorf("op phase ended after %v, before its budget", s.elapsed)
	}
}

func TestSpeedRefTicks(t *testing.T) {
	var none *speedRef
	none.tick()
	k := newSpeedRef()
	k.tick()
	k.tick() // within refEvery of the first: no sample
	if len(k.samples) != 1 || k.samples[0] <= 0 {
		t.Fatalf("samples after two ticks: %v, want one positive pass", k.samples)
	}
	k.last = k.last.Add(-refEvery)
	k.tick()
	if len(k.samples) != 2 {
		t.Errorf("tick after refEvery took %d samples in total, want 2", len(k.samples))
	}
	q := &countLocker{}
	k.quiet = q
	k.burst(3)
	if len(k.samples) != 5 || q.locks != 1 || q.held {
		t.Errorf("burst of 3: %d samples, quiet locked %d times (held %v), want 5 samples and one lock released", len(k.samples), q.locks, q.held)
	}
}

// countLocker counts how often a sample takes the quiet lock.
type countLocker struct {
	locks int
	held  bool
}

func (c *countLocker) Lock()   { c.locks++; c.held = true }
func (c *countLocker) Unlock() { c.held = false }

// TestPerturb checks the sensitivity check's added costs: a spin of the
// requested share of the op, and a live heap block of the requested size.
func TestPerturb(t *testing.T) {
	const d = 4 * time.Millisecond
	var none *perturb
	if got := none.timeOp(func() { spin(d) }); got < d || got > d*3/2 {
		t.Errorf("unperturbed %v op timed at %v", d, got)
	}
	p := &perturb{spinFrac: 0.5, heapMB: 1}
	if got := p.timeOp(func() { spin(d) }); got < d*3/2 || got > d*5/2 {
		t.Errorf("%v op with +0.5 spin timed at %v, want about %v", d, got, d*3/2)
	}
	if len(p.keep) != 1<<20 {
		t.Errorf("perturbed op kept %d bytes live, want 1 MiB", len(p.keep))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "core.Run", Parent: -1, Start: 0, End: 100},
		{Name: "control.A", Parent: 0, Start: 10, End: 30},
		{Name: "control.B", Parent: 0, Start: 20, End: 50}, // overlaps A
		{Name: "clock.C", Parent: 0, Start: 60, End: 70},
		{Name: "clock.D", Parent: 3, Start: 62, End: 64},
		{Name: "core.open", Parent: -1, Start: 200, End: -1}, // never ended
	}
	got := selfTimes(spans)
	want := map[string]int64{"core": 100 - 50, "control": 20 + 30, "clock": 10 - 2 + 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %d, want %d", k, got[k], v)
		}
	}
	var nilTracer *tracer
	nilTracer.do("core.x", -1, -1, func() {})
}

func TestOrderRounds(t *testing.T) {
	a, b := newOrder(7, 40), newOrder(7, 40)
	for round := 0; round < 3; round++ {
		seen := make(map[int]bool)
		for i := 0; i < 40; i++ {
			x, y := a.next(), b.next()
			if x != y {
				t.Fatalf("same seed diverged at round %d", round)
			}
			seen[x] = true
		}
		if len(seen) != 40 {
			t.Fatalf("round %d covered %d of 40 benchmarks", round, len(seen))
		}
	}
	c, d := newOrder(8, 40), newOrder(7, 40)
	same := true
	for i := 0; i < 40; i++ {
		if c.next() != d.next() {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 gave the same first round")
	}
}

// TestGoldensMatchThisCommit spot-checks the committed goldens against
// fresh runs.
func TestGoldensMatchThisCommit(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"gcc", "art"} {
		s, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		if got := phaseOf(core.RunWorkload(s, phaseConfig(), simWindow)); got != g.Phase[name] {
			t.Errorf("%s: got %+v, golden %+v", name, got, g.Phase[name])
		}
	}
}
