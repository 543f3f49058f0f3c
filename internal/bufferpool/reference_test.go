package bufferpool

import (
	"container/list"
	"math"
	"testing"

	"extsched/internal/sim"
)

// refLRU is the specification the pool must match: a map plus a
// container/list recency list, with dirty flags in a second map.
type refLRU struct {
	capacity     int
	order        *list.List // front = most recent; values are page ids
	elems        map[uint64]*list.Element
	dirty        map[uint64]bool
	evictedDirty uint64
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{
		capacity: capacity,
		order:    list.New(),
		elems:    make(map[uint64]*list.Element),
		dirty:    make(map[uint64]bool),
	}
}

func (r *refLRU) access(page uint64) bool {
	if e, ok := r.elems[page]; ok {
		r.order.MoveToFront(e)
		return true
	}
	if r.order.Len() == r.capacity {
		victim := r.order.Remove(r.order.Back()).(uint64)
		delete(r.elems, victim)
		if r.dirty[victim] {
			delete(r.dirty, victim)
			r.evictedDirty++
		}
	}
	r.elems[page] = r.order.PushFront(page)
	return false
}

func (r *refLRU) markDirty(page uint64) {
	if _, ok := r.elems[page]; ok {
		r.dirty[page] = true
	}
}

func (r *refLRU) collectDirty(max int) int {
	n := 0
	for e := r.order.Back(); e != nil && n < max; e = e.Prev() {
		if page := e.Value.(uint64); r.dirty[page] {
			delete(r.dirty, page)
			n++
		}
	}
	return n
}

// fuzzPages returns the page ids a fuzz input draws from, for a pool
// whose index has length n. The first 24 share home cells, six each:
// the last cell, the one before it, and cells 0 and 1, so their
// clusters wrap around the end of the index (ids 0–11 are the two
// last cells' groups). Then come small ids, multiples of n and ids at
// the top of the uint64 range.
func fuzzPages(p *Pool) []uint64 {
	n := uint64(len(p.index))
	var pages []uint64
	for _, h := range []int{int(n) - 1, int(n) - 2, 0, 1} {
		found := 0
		for id := uint64(0); found < 6; id++ {
			if p.home(id) == h {
				pages = append(pages, id)
				found++
			}
		}
	}
	for i := uint64(0); i < 8; i++ {
		pages = append(pages, i, i*n, (i+1)*n+1, math.MaxUint64-i)
	}
	return pages
}

// checkAgainstReference replays ops rounds times on a pool of the
// given capacity and on the reference, comparing every observable after
// every op. Each op is two bytes: the first picks the operation, the
// second the page (or the CollectDirty batch size). Replaying a short
// op string many times gives long eviction churn from an input the
// fuzzer can still mutate and minimise quickly.
func checkAgainstReference(t *testing.T, capacity, rounds int, ops []byte) {
	t.Helper()
	p, ref := New(capacity), newRefLRU(capacity)
	pages := fuzzPages(p)
	for k := 0; k+1 < rounds*len(ops); k += 2 {
		op, arg := ops[k%len(ops)], ops[(k+1)%len(ops)]
		page := pages[int(arg)%len(pages)]
		switch {
		case op < 200:
			if got, want := p.Access(page), ref.access(page); got != want {
				t.Fatalf("op %d: Access(%d) = %v, reference %v", k/2, page, got, want)
			}
		case op < 240:
			p.MarkDirty(page)
			ref.markDirty(page)
		default:
			batch := int(arg % 8)
			if got, want := p.CollectDirty(batch), ref.collectDirty(batch); got != want {
				t.Fatalf("op %d: CollectDirty(%d) = %d, reference %d", k/2, batch, got, want)
			}
		}
		if p.Resident() != ref.order.Len() || p.DirtyCount() != len(ref.dirty) ||
			p.EvictedDirty() != ref.evictedDirty {
			t.Fatalf("op %d: resident/dirty/evictedDirty = %d/%d/%d, reference %d/%d/%d", k/2,
				p.Resident(), p.DirtyCount(), p.EvictedDirty(),
				ref.order.Len(), len(ref.dirty), ref.evictedDirty)
		}
	}
	// Every reference page must still be found, in the same order.
	for e := ref.order.Front(); e != nil; e = e.Next() {
		if !p.Access(e.Value.(uint64)) {
			t.Fatalf("resident page %d not found in the index", e.Value.(uint64))
		}
	}
}

// churn builds an op string of n ops over span pages: mostly
// accesses, a dirty mark every fifth op and a collect every thirteenth.
// Replayed, it evicts (and so runs backward-shift deletion) on nearly
// every access once span exceeds the capacity.
func churn(n, span int) []byte {
	ops := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		switch {
		case i%13 == 12:
			ops = append(ops, 250, byte(i))
		case i%5 == 4:
			ops = append(ops, 220, byte((i*7)%span))
		default:
			ops = append(ops, byte(i%200), byte((i*37)%span))
		}
	}
	return ops
}

func FuzzPoolMatchesReferenceLRU(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 0, 2, 0, 1, 220, 1, 0, 3, 250, 7})
	f.Add(uint8(1), uint8(0), []byte{0, 0, 0, 8, 0, 16, 220, 8, 0, 0, 250, 1, 0, 8})
	f.Add(uint8(2), uint8(0), []byte{0, 32, 0, 33, 0, 34, 0, 35, 220, 33, 0, 36, 250, 3})
	for _, capRaw := range []uint8{0, 1, 2, 6, 15, 39} {
		f.Add(capRaw, uint8(63), churn(97, 56))
		f.Add(capRaw, uint8(31), churn(131, 255))
		// Churn over the pages homed in the last two cells only, so
		// evictions shift entries back across the end of the index.
		f.Add(capRaw, uint8(63), churn(29, 12))
	}
	f.Fuzz(func(t *testing.T, capRaw, rounds uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		checkAgainstReference(t, 1+int(capRaw%40), 1+int(rounds%64), ops)
	})
}

// checkDenseAgainstReference fills a pool and the reference with pages
// 0..k−1 in order, which keeps the pool dense, then replays ops as
// checkAgainstReference does over a page set that starts with 0..k+1,
// so accesses keep the pool dense until one misses on any other page
// or on a full pool, or until a CollectDirty. An op from 250 up on an
// empty pool Warms it instead, the fourth way out of the dense state,
// and the reference replays the warm-up's accesses. Hits, misses and
// whether the pool is still dense are compared after every op as well,
// and the recency order at the end.
func checkDenseAgainstReference(t *testing.T, capacity, k, rounds int, ops []byte) {
	t.Helper()
	p, ref := New(capacity), newRefLRU(capacity)
	var hits, misses uint64
	dense := true // what the exit rules say p.dense must be
	access := func(step int, page uint64) {
		if n := uint64(p.Resident()); page > n || page == n && p.Resident() == capacity {
			dense = false
		}
		got, want := p.Access(page), ref.access(page)
		if got != want {
			t.Fatalf("op %d: Access(%d) = %v, reference %v", step, page, got, want)
		}
		if want {
			hits++
		} else {
			misses++
		}
	}
	var pages []uint64
	for i := uint64(0); i < uint64(k+2); i++ {
		pages = append(pages, i)
	}
	for _, page := range pages[:k] {
		access(-1, page)
	}
	if !p.dense {
		t.Fatalf("pages 0..%d appended in order left the dense state", k-1)
	}
	pages = append(pages, fuzzPages(p)...)
	for j := 0; j+1 < rounds*len(ops); j += 2 {
		op, arg := ops[j%len(ops)], ops[(j+1)%len(ops)]
		page := pages[int(arg)%len(pages)]
		switch {
		case op < 200:
			access(j/2, page)
		case op < 240:
			p.MarkDirty(page)
			ref.markDirty(page)
		case op < 250 || p.Resident() > 0:
			dense = false
			batch := int(arg % 8)
			if got, want := p.CollectDirty(batch), ref.collectDirty(batch); got != want {
				t.Fatalf("op %d: CollectDirty(%d) = %d, reference %d", j/2, batch, got, want)
			}
		default:
			dense = false
			pat := AccessPattern{DBPages: uint64(k + 2 + capacity), HotFrac: 0.5, HotAccess: 0.5}
			p.Warm(pat, uint64(arg), 77, int(arg))
			g := sim.NewRNG(uint64(arg), 77)
			for i := 0; i < int(arg); i++ {
				ref.access(pat.Sample(g))
			}
		}
		if p.Resident() != ref.order.Len() || p.DirtyCount() != len(ref.dirty) ||
			p.EvictedDirty() != ref.evictedDirty || p.Hits() != hits || p.Misses() != misses || p.dense != dense {
			t.Fatalf("op %d: resident/dirty/evictedDirty/hits/misses/dense = %d/%d/%d/%d/%d/%v, reference %d/%d/%d/%d/%d/%v", j/2,
				p.Resident(), p.DirtyCount(), p.EvictedDirty(), p.Hits(), p.Misses(), p.dense,
				ref.order.Len(), len(ref.dirty), ref.evictedDirty, hits, misses, dense)
		}
	}
	got, e := recency(t, p), ref.order.Front()
	for i, page := range got {
		if want := e.Value.(uint64); page != want {
			t.Fatalf("recency position %d holds page %d, reference %d", i, page, want)
		}
		e = e.Next()
	}
}

func FuzzDensePoolMatchesReference(f *testing.F) {
	// A miss on a page other than the next one leaves the dense state:
	// pages[33] is MaxUint64, after hits, appends and a dirty mark.
	f.Add(uint8(9), uint8(4), uint8(0), []byte{0, 1, 0, 4, 220, 2, 0, 5, 0, 0, 0, 33, 0, 2, 250, 3})
	// So does a miss on the page after the next one, page k+1.
	f.Add(uint8(9), uint8(4), uint8(0), []byte{0, 5, 0, 4, 0, 5, 220, 4, 250, 2, 0, 0})
	// A miss on a full pool: pages 0..5 fill a pool of 6, then page 6.
	f.Add(uint8(5), uint8(6), uint8(0), []byte{0, 3, 220, 0, 0, 6, 0, 1, 220, 4, 0, 7, 250, 1})
	// CollectDirty on a dense pool, then misses on the pages a dense
	// pool would have appended.
	f.Add(uint8(7), uint8(5), uint8(0), []byte{0, 2, 220, 1, 220, 3, 0, 1, 245, 2, 0, 5, 0, 6, 0, 4})
	// Warm on the empty pool, then accesses to the warmed pages.
	f.Add(uint8(3), uint8(0), uint8(0), []byte{250, 20, 0, 0, 0, 1, 220, 1, 0, 2, 245, 7, 0, 30})
	for _, capRaw := range []uint8{0, 1, 6, 15, 39} {
		f.Add(capRaw, uint8(capRaw+1), uint8(63), churn(97, 56))
		f.Add(capRaw, uint8(capRaw/2), uint8(31), churn(131, 255))
	}
	f.Fuzz(func(t *testing.T, capRaw, kRaw, rounds uint8, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		capacity := 1 + int(capRaw%40)
		checkDenseAgainstReference(t, capacity, int(kRaw)%(capacity+1), 1+int(rounds%64), ops)
	})
}

func TestCachedAccessAllocatesNothing(t *testing.T) {
	const capacity = 64
	p := New(capacity)
	for i := uint64(0); i < capacity; i++ {
		p.Access(i)
		p.MarkDirty(i)
	}
	next := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if !p.Access(next * 37 % capacity) {
			t.Fatal("access to a fully-cached pool missed")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("cached Access allocates %v times per call, want 0", allocs)
	}
	if !p.dense {
		t.Error("hits on a pool filled with pages 0..63 in order left the dense state")
	}

	// Leaving the dense state sorts in the index's own memory.
	pools := make([]*Pool, 21) // AllocsPerRun calls f once more to warm up
	for i := range pools {
		pools[i] = New(capacity)
		for j := uint64(0); j < capacity; j++ {
			pools[i].Access(j * 11 % capacity)
		}
	}
	allocs = testing.AllocsPerRun(len(pools)-1, func() {
		pools[next%uint64(len(pools))].CollectDirty(1)
		next++
	})
	if allocs != 0 {
		t.Errorf("leaving the dense state allocates %v times, want 0", allocs)
	}
}

func TestEvictingAccessAllocatesNothing(t *testing.T) {
	const capacity = 64
	p := New(capacity)
	for i := uint64(0); i < capacity; i++ {
		p.Access(i)
		p.MarkDirty(i)
	}
	// Cycling over capacity+1 pages misses and evicts on every access.
	next := uint64(capacity)
	allocs := testing.AllocsPerRun(1000, func() {
		if p.Access(next % (capacity + 1)) {
			t.Fatal("cyclic access over capacity+1 pages hit")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("evicting Access allocates %v times per call, want 0", allocs)
	}
}
