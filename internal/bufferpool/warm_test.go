package bufferpool

import (
	"math"
	"testing"

	"extsched/internal/sim"
)

// replay is the reference Warm must match: n accesses drawn from pat
// on stream (seed, stream), each one a real Access.
func replay(p *Pool, pat AccessPattern, seed, stream uint64, n int) {
	g := sim.NewRNG(seed, stream)
	for i := 0; i < n; i++ {
		p.Access(pat.Sample(g))
	}
}

// recency returns the resident pages from most to least recently used.
// It walks the list both ways and checks that the walks agree, that
// they cover every arena node, and that lookup finds each page at its
// own slot. A dense pool has no list to walk, so it leaves the dense
// state first.
func recency(t testing.TB, p *Pool) []uint64 {
	t.Helper()
	p.leaveDense()
	var pages []uint64
	var slots []int32
	for i := p.head; i >= 0; i = p.nodes[i].next {
		pages = append(pages, p.nodes[i].page)
		slots = append(slots, i)
		if len(pages) > len(p.nodes) {
			t.Fatalf("recency list longer than the arena (%d nodes): a cycle", len(p.nodes))
		}
	}
	if len(pages) != p.Resident() {
		t.Fatalf("recency list has %d pages, Resident() = %d", len(pages), p.Resident())
	}
	k := len(slots)
	for i := p.tail; i >= 0; i = p.nodes[i].prev {
		k--
		if k < 0 || slots[k] != i {
			t.Fatalf("backward walk reaches slot %d at position %d, forward walk disagrees", i, k)
		}
	}
	if k != 0 {
		t.Fatalf("backward walk stops %d nodes short of the head", k)
	}
	used := 0
	for _, c := range p.index {
		if c != 0 {
			used++
		}
	}
	if used != len(pages) {
		t.Fatalf("index holds %d entries for %d resident pages", used, len(pages))
	}
	for j, page := range pages {
		if got := p.lookup(page); got != slots[j] {
			t.Fatalf("lookup(%d) = slot %d, the list holds it at slot %d", page, got, slots[j])
		}
	}
	return pages
}

// samePools fails unless two pools hold the same pages in the same
// recency order, each indexed at its own slot, with the same counters.
func samePools(t testing.TB, what string, got, want *Pool) {
	t.Helper()
	g, w := recency(t, got), recency(t, want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d resident pages, replay %d", what, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: recency position %d holds page %d, replay %d", what, i, g[i], w[i])
		}
	}
	if got.Hits() != want.Hits() || got.Misses() != want.Misses() ||
		got.DirtyCount() != want.DirtyCount() || got.EvictedDirty() != want.EvictedDirty() {
		t.Fatalf("%s: hits/misses/dirty/evictedDirty = %d/%d/%d/%d, replay %d/%d/%d/%d", what,
			got.Hits(), got.Misses(), got.DirtyCount(), got.EvictedDirty(),
			want.Hits(), want.Misses(), want.DirtyCount(), want.EvictedDirty())
	}
}

// checkWarmMatchesReplay warms one pool and replays into another, then
// compares them as they stand (the replay's counters reset, as Prewarm
// resets them) and again after driving both with the same further
// accesses, dirty marks and flusher batches, so slot numbers or index
// cluster order that differ between them cannot show either.
func checkWarmMatchesReplay(t testing.TB, capacity int, pat AccessPattern, seed, stream uint64, n int) {
	t.Helper()
	warm, ref := New(capacity), New(capacity)
	warm.Warm(pat, seed, stream, n)
	replay(ref, pat, seed, stream, n)
	ref.ResetStats()
	samePools(t, "after warm-up", warm, ref)

	// A flusher batch walks the list from its LRU end, so batches come
	// about 16 times per pass over the pool, whatever its size.
	g, every := sim.NewRNG(seed, stream+1), 7+capacity/8
	for i := 0; i < 2*capacity+64; i++ {
		page := pat.Sample(g)
		if got, want := warm.Access(page), ref.Access(page); got != want {
			t.Fatalf("access %d after warm-up: Access(%d) = %v, replay %v", i, page, got, want)
		}
		switch {
		case i%every == every-1:
			if got, want := warm.CollectDirty(3), ref.CollectDirty(3); got != want {
				t.Fatalf("access %d after warm-up: CollectDirty = %d, replay %d", i, got, want)
			}
		case i%3 == 0:
			warm.MarkDirty(page)
			ref.MarkDirty(page)
		}
	}
	samePools(t, "after further accesses", warm, ref)
}

func TestWarmAllHotNeverFills(t *testing.T) {
	// Ten hot pages in a pool of 64: Warm must spend every sample and
	// still leave all ten resident.
	p := New(64)
	p.Warm(AccessPattern{DBPages: 10_000, HotFrac: 0.001, HotAccess: 1}, 1, 77, 320)
	if p.Resident() != 10 {
		t.Errorf("resident = %d, want the 10 hot pages", p.Resident())
	}
}

func TestWarmNeedsEmptyPool(t *testing.T) {
	p := New(4)
	p.Access(1)
	defer func() {
		if recover() == nil {
			t.Error("Warm on a non-empty pool did not panic")
		}
	}()
	p.Warm(AccessPattern{DBPages: 100, HotFrac: 0.1, HotAccess: 0.5}, 1, 77, 20)
}

func TestWarmAllocatesNothing(t *testing.T) {
	const runs = 20
	pat := AccessPattern{DBPages: 1 << 17, HotFrac: 0.15, HotAccess: 0.65}
	pools := make([]*Pool, runs+1) // AllocsPerRun calls f once more to warm up
	for i := range pools {
		pools[i] = New(4096)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		pools[next].Warm(pat, uint64(next), 77, 5*4096)
		next++
	})
	if allocs != 0 {
		t.Errorf("Warm allocates %v times per call, want 0", allocs)
	}
	if pools[0].Resident() != 4096 {
		t.Errorf("warmed pool holds %d pages, want it full at 4096", pools[0].Resident())
	}
}

// unit maps a fuzzed float64 into [0,1].
func unit(x float64) float64 {
	if x >= 0 && x <= 1 {
		return x
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(math.Abs(x), 1)
}

func FuzzWarmMatchesReplay(f *testing.F) {
	f.Add(uint8(0), uint16(999), 0.1, 0.5, uint64(1), uint16(5))
	f.Add(uint8(63), uint16(9999), 0.001, 1.0, uint64(2), uint16(320))
	f.Add(uint8(15), uint16(511), 0.2, 0.0, uint64(3), uint16(80))
	f.Add(uint8(31), uint16(299), 1.0, 0.8, uint64(4), uint16(160))
	f.Add(uint8(40), uint16(30), 0.5, 0.9, uint64(5), uint16(1000))
	f.Add(uint8(7), uint16(0), 0.3, 0.3, uint64(6), uint16(0))
	f.Fuzz(func(t *testing.T, capRaw uint8, dbRaw uint16, hotFrac, hotAccess float64, seed uint64, nRaw uint16) {
		pat := AccessPattern{DBPages: 1 + uint64(dbRaw%512), HotFrac: unit(hotFrac), HotAccess: unit(hotAccess)}
		if pat.HotFrac == 0 {
			pat.HotFrac = 1
		}
		checkWarmMatchesReplay(t, 1+int(capRaw%64), pat, seed, 77, int(nRaw%2048))
	})
}
