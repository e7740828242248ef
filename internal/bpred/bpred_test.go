package bpred

import (
	"math/rand"
	"reflect"
	"testing"

	"gals/internal/timing"
)

func geom() timing.BPredGeom { return timing.ICache16K1W.Spec().BPred }

// accuracy trains the predictor on a generated outcome stream and returns
// the fraction predicted correctly over the second half (post warmup).
func accuracy(t *testing.T, outcomes func(i int) (pc uint64, taken bool), n int) float64 {
	t.Helper()
	p := New(geom())
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		pred := p.Predict(pc)
		if i >= n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(counted)
}

func TestLearnsAlwaysTaken(t *testing.T) {
	acc := accuracy(t, func(i int) (uint64, bool) { return 0x400100, true }, 1000)
	if acc < 0.999 {
		t.Errorf("always-taken accuracy %.3f, want ~1", acc)
	}
}

func TestLearnsPeriodicPattern(t *testing.T) {
	// TTTTTTTN: the local component learns the period.
	acc := accuracy(t, func(i int) (uint64, bool) { return 0x400200, i%8 < 7 }, 4000)
	if acc < 0.95 {
		t.Errorf("periodic-pattern accuracy %.3f, want > 0.95", acc)
	}
}

func TestLearnsInterleavedBranches(t *testing.T) {
	// 50 branches with different biases, round-robin.
	acc := accuracy(t, func(i int) (uint64, bool) {
		b := i % 50
		pc := uint64(0x400000 + b*36)
		period := 4 + b%5
		duty := period - 1
		if b%2 == 0 {
			duty = 1
		}
		return pc, (i/50)%period < duty
	}, 60_000)
	if acc < 0.9 {
		t.Errorf("interleaved accuracy %.3f, want > 0.9", acc)
	}
}

func TestRandomOutcomesNearChance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	acc := accuracy(t, func(i int) (uint64, bool) { return 0x400300, rng.Intn(2) == 0 }, 20_000)
	if acc < 0.4 || acc > 0.6 {
		t.Errorf("random-outcome accuracy %.3f, want ~0.5", acc)
	}
}

func TestGlobalCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: only the
	// global (gshare) component can capture this.
	rng := rand.New(rand.NewSource(9))
	last := false
	acc := accuracy(t, func(i int) (uint64, bool) {
		if i%2 == 0 {
			last = rng.Intn(2) == 0
			return 0x400400, last
		}
		return 0x400500, last
	}, 40_000)
	// Only the correlated branch (half the stream) is predictable: overall
	// accuracy should be well above chance (~0.75 ideal).
	if acc < 0.65 {
		t.Errorf("correlated accuracy %.3f, want > 0.65", acc)
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(geom()), New(geom())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		pc := uint64(0x400000 + rng.Intn(200)*4)
		taken := rng.Intn(3) > 0
		if a.Predict(pc) != b.Predict(pc) {
			t.Fatal("identical predictors disagree")
		}
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
}

func TestBiggerTablesHelpOnManyBranches(t *testing.T) {
	// Outcomes correlate with recent global history (learnable only by the
	// gshare side), across thousands of live branches: the 64KB-class
	// predictor (hg=16, 65536 entries) suffers far less aliasing than the
	// 4KB-class one (hg=12, 4096 entries).
	run := func(g timing.BPredGeom) float64 {
		p := New(g)
		correct, counted := 0, 0
		const branches = 2500
		cnt := make([]int, branches)
		n := 250_000
		for i := 0; i < n; i++ {
			b := i % branches // round-robin visit order, as in loopy code
			pc := uint64(0x400000 + b*28)
			// Per-branch periodic pattern (period 4..8, branch-dependent
			// duty): thousands of live patterns exceed the small
			// predictor's local tables but fit the large one's.
			period := 4 + b%5
			duty := period - 1
			if b%3 == 0 {
				duty = 1
			}
			taken := cnt[b]%period < duty
			cnt[b]++
			if i > n/2 {
				counted++
				if p.Predict(pc) == taken {
					correct++
				}
			}
			p.Update(pc, taken)
		}
		return float64(correct) / float64(counted)
	}
	small := run(timing.SyncICacheSpecs()[0].BPred) // 4KB-paired predictor
	i64, _ := timing.SyncICacheIndexByName("64k1W")
	big := run(timing.SyncICacheSpecs()[i64].BPred)
	if big <= small+0.02 {
		t.Errorf("big predictor (%.3f) not clearly better than small (%.3f)", big, small)
	}
}

func TestBankTrainsAllGeometries(t *testing.T) {
	b := NewBank(timing.ICache16K1W)
	if b.Active() != timing.ICache16K1W {
		t.Fatalf("active = %v, want 16k1W", b.Active())
	}
	// Train an always-taken branch while the small geometry is active.
	for i := 0; i < 200; i++ {
		b.Predict(0x400700)
		b.Update(0x400700, true)
	}
	// Switch: the larger geometry was trained in the shadow and predicts
	// immediately.
	b.SetActive(timing.ICache64K4W)
	if !b.Predict(0x400700) {
		t.Error("inactive geometry was not kept warm")
	}
}

// TestResetEqualsNew trains every Table 2 geometry's bank and requires Reset
// to leave exactly what NewBank builds (counters, histories, active
// geometry), covering tables larger than Reset's fill template.
func TestResetEqualsNew(t *testing.T) {
	b := NewBank(timing.ICache64K4W)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		pc := uint64(rng.Intn(1<<16)) * 4
		b.Predict(pc)
		b.Update(pc, rng.Intn(3) != 0)
	}
	b.Reset(timing.ICache32K2W)
	if want := NewBank(timing.ICache32K2W); !reflect.DeepEqual(b, want) {
		t.Error("Reset leaves a bank different from NewBank")
	}
}
