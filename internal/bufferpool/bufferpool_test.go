package bufferpool

import (
	"math"
	"testing"
	"testing/quick"

	"extsched/internal/sim"
)

func TestLRUBasics(t *testing.T) {
	p := New(2)
	if p.Access(1) {
		t.Error("first access should miss")
	}
	if !p.Access(1) {
		t.Error("second access should hit")
	}
	p.Access(2) // miss, pool = {1,2}
	p.Access(3) // miss, evicts 1 (LRU)
	if p.Access(1) {
		t.Error("evicted page should miss")
	}
	// Now pool = {3,1} (2 was LRU after 3's insert? order: access(2)
	// → front 2; access(3) → evict 1, front 3, pool {3,2}; access(1)
	// → evict 2, pool {1,3}).
	if !p.Access(3) {
		t.Error("page 3 should still be resident")
	}
	if p.Resident() != 2 {
		t.Errorf("resident = %d, want 2", p.Resident())
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p := New(3)
	p.Access(1)
	p.Access(2)
	p.Access(3)
	p.Access(1) // 1 now MRU; LRU order: 2,3,1
	p.Access(4) // evicts 2
	if p.Access(2) {
		t.Error("page 2 should have been evicted")
	}
	// Accessing 2 above evicted 3 (LRU after: 3,1,4 → evict 3).
	if p.Access(3) {
		t.Error("page 3 should have been evicted")
	}
}

func TestHitRatioCounters(t *testing.T) {
	p := New(10)
	for i := uint64(0); i < 10; i++ {
		p.Access(i)
	}
	for i := uint64(0); i < 10; i++ {
		p.Access(i)
	}
	if p.Hits() != 10 || p.Misses() != 10 {
		t.Errorf("hits/misses = %d/%d, want 10/10", p.Hits(), p.Misses())
	}
	if p.HitRatio() != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", p.HitRatio())
	}
	p.ResetStats()
	if p.Hits() != 0 || p.Misses() != 0 || p.HitRatio() != 0 {
		t.Error("ResetStats did not clear counters")
	}
	if p.Resident() != 10 {
		t.Error("ResetStats evicted pages")
	}
}

func TestResidentNeverExceedsCapacityProperty(t *testing.T) {
	f := func(capRaw uint8, accesses []uint16) bool {
		capacity := 1 + int(capRaw%32)
		p := New(capacity)
		for _, a := range accesses {
			p.Access(uint64(a))
			if p.Resident() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFullyCachedNoMissesAfterWarmup(t *testing.T) {
	p := New(100)
	pat := AccessPattern{DBPages: 100, HotFrac: 0.2, HotAccess: 0.8}
	g := sim.NewRNG(1, 0)
	for i := 0; i < 1000; i++ {
		p.Access(pat.Sample(g))
	}
	p.ResetStats()
	for i := 0; i < 10000; i++ {
		p.Access(pat.Sample(g))
	}
	// DB fits entirely: after warmup the miss ratio tends to 0 (cold
	// pages may still trickle in).
	if r := p.HitRatio(); r < 0.97 {
		t.Errorf("hit ratio = %v, want > 0.97 for fully cached DB", r)
	}
}

func TestSkewedPatternHitRatio(t *testing.T) {
	// Pool covers the hot set, but cold accesses pollute the LRU, so
	// the hit ratio lands well below HotAccess yet far above the
	// no-locality baseline capacity/DBPages = 0.1.
	pat := AccessPattern{DBPages: 10000, HotFrac: 0.1, HotAccess: 0.9}
	p := New(1000)
	g := sim.NewRNG(2, 0)
	for i := 0; i < 20000; i++ {
		p.Access(pat.Sample(g))
	}
	p.ResetStats()
	for i := 0; i < 100000; i++ {
		p.Access(pat.Sample(g))
	}
	if r := p.HitRatio(); r < 0.5 || r > 0.9 {
		t.Errorf("hit ratio = %v, want in (0.5, 0.9)", r)
	}
}

func TestExpectedMissRatioMatchesSimulation(t *testing.T) {
	cases := []struct {
		pat      AccessPattern
		capacity int
	}{
		{AccessPattern{DBPages: 10000, HotFrac: 0.1, HotAccess: 0.9}, 1000},
		{AccessPattern{DBPages: 10000, HotFrac: 0.2, HotAccess: 0.8}, 500},
		{AccessPattern{DBPages: 10000, HotFrac: 0.2, HotAccess: 0.8}, 5000},
	}
	for _, tc := range cases {
		p := New(tc.capacity)
		g := sim.NewRNG(3, 0)
		for i := 0; i < 50000; i++ {
			p.Access(tc.pat.Sample(g))
		}
		p.ResetStats()
		for i := 0; i < 200000; i++ {
			p.Access(tc.pat.Sample(g))
		}
		measured := 1 - p.HitRatio()
		predicted := tc.pat.ExpectedMissRatio(tc.capacity)
		if math.Abs(measured-predicted) > 0.05 {
			t.Errorf("%+v cap=%d: measured miss %v, predicted %v",
				tc.pat, tc.capacity, measured, predicted)
		}
	}
}

func TestExpectedMissRatioBounds(t *testing.T) {
	pat := AccessPattern{DBPages: 1000, HotFrac: 0.2, HotAccess: 0.8}
	if r := pat.ExpectedMissRatio(1000); r != 0 {
		t.Errorf("fully cached miss ratio = %v, want 0", r)
	}
	if r := pat.ExpectedMissRatio(2000); r != 0 {
		t.Errorf("oversized pool miss ratio = %v, want 0", r)
	}
	prev := 1.0
	for _, c := range []int{10, 100, 200, 400, 800, 999} {
		r := pat.ExpectedMissRatio(c)
		if r < 0 || r > 1 {
			t.Fatalf("miss ratio %v outside [0,1] at capacity %d", r, c)
		}
		if r > prev+1e-12 {
			t.Errorf("miss ratio not non-increasing: %v after %v at cap %d", r, prev, c)
		}
		prev = r
	}
}

func TestAccessPatternValidate(t *testing.T) {
	good := AccessPattern{DBPages: 10, HotFrac: 0.5, HotAccess: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid pattern rejected: %v", err)
	}
	for _, bad := range []AccessPattern{
		{DBPages: 0, HotFrac: 0.5, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 0, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 1.5, HotAccess: 0.5},
		{DBPages: 10, HotFrac: 0.5, HotAccess: -0.1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid pattern accepted: %+v", bad)
		}
	}
}

func TestSampleWithinRange(t *testing.T) {
	pat := AccessPattern{DBPages: 500, HotFrac: 0.1, HotAccess: 0.7}
	g := sim.NewRNG(4, 0)
	for i := 0; i < 10000; i++ {
		page := pat.Sample(g)
		if page >= 500 {
			t.Fatalf("sampled page %d outside DB of 500 pages", page)
		}
	}
}

func TestCapacityValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDirtyTracking(t *testing.T) {
	p := New(4)
	p.Access(1)
	p.Access(2)
	p.MarkDirty(1)
	p.MarkDirty(2)
	p.MarkDirty(99) // not resident: ignored
	if p.DirtyCount() != 2 {
		t.Errorf("dirty = %d, want 2", p.DirtyCount())
	}
	if got := p.CollectDirty(10); got != 2 {
		t.Errorf("collected %d, want 2", got)
	}
	if p.DirtyCount() != 0 {
		t.Error("CollectDirty did not clear flags")
	}
	if got := p.CollectDirty(10); got != 0 {
		t.Errorf("second collect = %d, want 0", got)
	}
}

func TestCollectDirtyBatchLimit(t *testing.T) {
	p := New(10)
	for i := uint64(0); i < 8; i++ {
		p.Access(i)
		p.MarkDirty(i)
	}
	if got := p.CollectDirty(3); got != 3 {
		t.Errorf("batch = %d, want 3", got)
	}
	if p.DirtyCount() != 5 {
		t.Errorf("remaining dirty = %d, want 5", p.DirtyCount())
	}
	// The batch came from the LRU end: pages 0–2 are clean, so
	// evicting them now loses no dirty page.
	for i := uint64(100); i < 105; i++ {
		p.Access(i) // the last three evict pages 0, 1 and 2
	}
	if p.EvictedDirty() != 0 {
		t.Errorf("evicted dirty = %d, want 0: the batch was not the LRU end", p.EvictedDirty())
	}
}

func TestEvictedDirtyCounted(t *testing.T) {
	p := New(2)
	p.Access(1)
	p.MarkDirty(1)
	p.Access(2)
	p.Access(3) // evicts 1 (dirty)
	if p.EvictedDirty() != 1 {
		t.Errorf("evicted dirty = %d, want 1", p.EvictedDirty())
	}
	if p.DirtyCount() != 0 {
		t.Errorf("dirty = %d after eviction, want 0", p.DirtyCount())
	}
}
