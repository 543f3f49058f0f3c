package bufferpool

import (
	"container/list"
	"math"
	"testing"
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
