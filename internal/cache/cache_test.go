package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gals/internal/timing"
)

func testGeo() Geometry {
	return Geometry{Name: "test", Sets: 16, Ways: 4, LineBytes: 64}
}

func TestGeometryValidation(t *testing.T) {
	bad := []Geometry{
		{Name: "sets0", Sets: 0, Ways: 4, LineBytes: 64},
		{Name: "ways", Sets: 16, Ways: 0, LineBytes: 64},
		{Name: "line", Sets: 16, Ways: 4, LineBytes: 48},
	}
	for _, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %+v did not panic", g)
				}
			}()
			New(g)
		}()
	}
	if got := (Geometry{Sets: 512, Ways: 8, LineBytes: 64}).SizeKB(); got != 256 {
		t.Errorf("SizeKB = %d, want 256", got)
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := New(testGeo()) // full A, no B
	if cls := c.Access(0x1000, false); cls != Miss {
		t.Fatalf("first access: %v, want miss", cls)
	}
	if cls := c.Access(0x1000, false); cls != AHit {
		t.Fatalf("second access: %v, want A-hit", cls)
	}
	// Same set, different tags fill the other ways (set stride = 16*64).
	for i := 1; i <= 3; i++ {
		if cls := c.Access(uint64(0x1000+i*16*64), false); cls != Miss {
			t.Fatalf("fill way %d: %v, want miss", i, cls)
		}
	}
	// All four ways hit now.
	for i := 0; i <= 3; i++ {
		if cls := c.Access(uint64(0x1000+i*16*64), false); cls != AHit {
			t.Fatalf("way %d after fill: %v, want A-hit", i, cls)
		}
	}
	// A fifth line evicts the LRU (0x1000, accessed longest ago).
	c.Access(0x1000+4*16*64, false)
	if cls := c.Access(0x1000, false); cls != Miss {
		t.Fatalf("evicted line: %v, want miss", cls)
	}
}

func TestAOnlyModeDisabledWays(t *testing.T) {
	c := New(testGeo())
	c.Configure(1, false) // direct-mapped A partition, no B
	c.Access(0x2000, false)
	if cls := c.Access(0x2000, false); cls != AHit {
		t.Fatalf("MRU line: %v, want A-hit", cls)
	}
	// A second line in the same set displaces the first from the A way.
	c.Access(0x2000+16*64, false)
	// The first line's tag is still tracked (MRU position 1) but its data
	// is not resident: timing class is a miss.
	if cls := c.Access(0x2000, false); cls != Miss {
		t.Fatalf("displaced line in A-only mode: %v, want miss", cls)
	}
	// Statistics recorded it at MRU position 1, so Reconstruct for a
	// 2-way A partition counts it as an A hit.
	st := c.Stats()
	aH, _, misses := st.Reconstruct(2, false)
	if aH != 1+1 { // the two true A hits above... recompute below
		// Position accounting: access2 hit pos0; access3 (new line) miss;
		// access4 hit pos1. Reconstruct(2): posHits[0]+posHits[1] = 2.
		t.Fatalf("reconstructed 2-way A hits = %d, want 2", aH)
	}
	if misses != 2 { // two directory misses (cold)
		t.Fatalf("reconstructed misses = %d, want 2", misses)
	}
}

func TestABModeSwap(t *testing.T) {
	c := New(testGeo())
	c.Configure(1, true) // 1-way A, 3-way B
	c.Access(0x3000, false)
	c.Access(0x3000+16*64, false) // displaces first into B
	if cls := c.Access(0x3000, false); cls != BHit {
		t.Fatalf("displaced line with B enabled: %v, want B-hit", cls)
	}
	// The B hit swapped it back to MRU: now an A hit.
	if cls := c.Access(0x3000, false); cls != AHit {
		t.Fatalf("after swap: %v, want A-hit", cls)
	}
}

func TestConfigureFullCacheDisablesB(t *testing.T) {
	c := New(testGeo())
	c.Configure(4, true)
	if c.BEnabled() {
		t.Error("B partition enabled with all ways in A")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Configure(0) did not panic")
			}
		}()
		c.Configure(0, false)
	}()
}

// TestReconstructionExactness is the Accounting Cache's core property
// (paper Section 3.1): MRU-position counters collected under ANY
// configuration reconstruct the exact A/B/miss counts that EVERY
// configuration would have produced, because MRU state evolution is
// configuration independent. We verify by running the same random access
// stream through caches in different configurations and comparing actual
// outcome counts against reconstruction from a differently-configured
// cache's statistics.
func TestReconstructionExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	addrs := make([]uint64, 20_000)
	for i := range addrs {
		// 64 distinct lines over 16 sets: plenty of conflict.
		addrs[i] = uint64(rng.Intn(64)) * 64
	}

	// Reference: collect statistics under the 1-way A/B configuration.
	ref := New(testGeo())
	ref.Configure(1, true)
	for _, a := range addrs {
		ref.Access(a, false)
	}
	stats := ref.Stats()

	for waysA := 1; waysA <= 4; waysA++ {
		for _, bEnabled := range []bool{false, true} {
			if waysA == 4 && bEnabled {
				continue
			}
			c := New(testGeo())
			c.Configure(waysA, bEnabled)
			var aH, bH, miss uint64
			for _, a := range addrs {
				switch c.Access(a, false) {
				case AHit:
					aH++
				case BHit:
					bH++
				default:
					miss++
				}
			}
			ra, rb, rm := stats.Reconstruct(waysA, bEnabled)
			if ra != aH || rb != bH || rm != miss {
				t.Errorf("waysA=%d B=%v: reconstructed %d/%d/%d, actual %d/%d/%d",
					waysA, bEnabled, ra, rb, rm, aH, bH, miss)
			}
		}
	}
}

func TestReconstructionMonotone(t *testing.T) {
	// More A ways can only convert B hits/misses into A hits.
	rng := rand.New(rand.NewSource(5))
	c := New(testGeo())
	c.Configure(2, true)
	for i := 0; i < 5000; i++ {
		c.Access(uint64(rng.Intn(96))*64, rng.Intn(4) == 0)
	}
	s := c.Stats()
	prevA := uint64(0)
	for ways := 1; ways <= 4; ways++ {
		aH, _, _ := s.Reconstruct(ways, true)
		if aH < prevA {
			t.Errorf("A hits decreased from %d to %d at %d ways", prevA, aH, ways)
		}
		prevA = aH
	}
	// Total is conserved across all reconstructions.
	for ways := 1; ways <= 4; ways++ {
		aH, bH, miss := s.Reconstruct(ways, true)
		if aH+bH+miss != s.Accesses {
			t.Errorf("ways=%d: %d+%d+%d != %d accesses", ways, aH, bH, miss, s.Accesses)
		}
	}
}

func TestResetStats(t *testing.T) {
	c := New(testGeo())
	c.Access(0, false)
	c.Access(0, false)
	c.ResetStats()
	s := c.Stats()
	if s.Accesses != 0 || s.DirMisses != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
	// Contents survive reset.
	if cls := c.Access(0, false); cls != AHit {
		t.Errorf("contents lost on stats reset: %v", cls)
	}
}

func TestWritebacks(t *testing.T) {
	c := New(Geometry{Name: "wb", Sets: 1, Ways: 2, LineBytes: 64})
	c.Access(0*64, true)  // dirty
	c.Access(1*64, false) // clean
	c.Access(2*64, false) // evicts line 0 (dirty): writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	// Dirty bit follows the line through MRU moves.
	c2 := New(Geometry{Name: "wb2", Sets: 1, Ways: 2, LineBytes: 64})
	c2.Access(0*64, true)
	c2.Access(1*64, false)
	c2.Access(0*64, false) // move dirty line back to MRU
	c2.Access(2*64, false) // evicts line 1 (clean)
	if got := c2.Stats().Writebacks; got != 0 {
		t.Errorf("writebacks = %d, want 0 (clean victim)", got)
	}
}

func TestProbe(t *testing.T) {
	c := New(testGeo())
	c.Configure(1, false)
	c.Access(0x4000, false)
	if cls, ok := c.Probe(0x4000); !ok || cls != AHit {
		t.Errorf("Probe resident = %v,%v, want A-hit,true", cls, ok)
	}
	if _, ok := c.Probe(0x9999999); ok {
		t.Error("Probe of absent line reported a hit")
	}
	// Probe must not disturb MRU state or stats.
	before := c.Stats().Accesses
	c.Probe(0x4000)
	if c.Stats().Accesses != before {
		t.Error("Probe changed access statistics")
	}
}

func TestCostModel(t *testing.T) {
	p := CostParams{ALat: 2, BLat: 8, Period: 1000, MissPenalty: 50_000}
	// 10 A hits only: 10*2 cycles * 1000 fs.
	if got := Cost(10, 0, 0, true, p); got != 20_000 {
		t.Errorf("A-only cost = %d, want 20000", got)
	}
	// B hits add the B latency.
	if got := Cost(0, 5, 0, true, p); got != 5*(2+8)*1000 {
		t.Errorf("B cost = %d, want %d", got, 5*(2+8)*1000)
	}
	// Misses pay A latency plus the penalty (B probe overlapped).
	if got := Cost(0, 0, 3, true, p); got != 3*2*1000+3*50_000 {
		t.Errorf("miss cost = %d, want %d", got, 3*2*1000+3*50_000)
	}
}

func TestCostMonotoneInCounts(t *testing.T) {
	p := CostParams{ALat: 2, BLat: 5, Period: timing.PeriodFS(1300), MissPenalty: 80 * timing.FemtosPerNano}
	f := func(a, b, m uint32) bool {
		base := Cost(uint64(a), uint64(b), uint64(m), true, p)
		return Cost(uint64(a)+1, uint64(b), uint64(m), true, p) >= base &&
			Cost(uint64(a), uint64(b)+1, uint64(m), true, p) >= base &&
			Cost(uint64(a), uint64(b), uint64(m)+1, true, p) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	if AHit.String() != "A-hit" || BHit.String() != "B-hit" || Miss.String() != "miss" {
		t.Error("Class.String mismatch")
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// Sets-resized caches can have 3/4 of the full set count (e.g. 48KB
	// direct-mapped out of a 64KB array): modulo indexing must behave.
	c := New(Geometry{Name: "mod", Sets: 768, Ways: 1, LineBytes: 64})
	for i := 0; i < 3000; i++ {
		c.Access(uint64(i%1000)*64, false)
	}
	s := c.Stats()
	if s.Accesses != 3000 {
		t.Fatalf("accesses = %d", s.Accesses)
	}
	// Lines 0..767 hit after warmup; 768..999 conflict with 0..231.
	if hits := s.PosHits[0]; hits == 0 {
		t.Error("no hits in a 768-set cache over a 1000-line footprint")
	}
}

// TestResetEqualsNew dirties caches of a power-of-two and a modulo-indexed
// geometry (contents, dirty bits, statistics, partitioning) and requires
// Reset to leave exactly what New builds.
func TestResetEqualsNew(t *testing.T) {
	for _, geo := range []Geometry{testGeo(), {Name: "mod", Sets: 768, Ways: 2, LineBytes: 64}} {
		c := New(geo)
		c.Configure(1, true)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20000; i++ {
			c.Access(uint64(rng.Intn(1<<20)), rng.Intn(3) == 0)
		}
		if c.Stats().Writebacks == 0 {
			t.Fatalf("%s: workload left no dirty evictions to reset", geo.Name)
		}
		c.Reset()
		if want := New(geo); !reflect.DeepEqual(c, want) {
			t.Errorf("%s: Reset leaves a cache different from New", geo.Name)
		}
	}
}
