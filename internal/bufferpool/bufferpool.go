// Package bufferpool simulates the DBMS buffer pool. It is a real LRU
// cache over page identifiers: the workload generator produces page
// accesses (skewed hot/cold, like OLTP working sets), and the hit/miss
// outcome decides whether a transaction's logical read turns into
// physical disk I/O. Varying pool size against database size is how the
// paper turns the same benchmark into CPU-bound (everything cached,
// e.g. W_CPU-inventory: 1 GB data / 1 GB pool) or I/O-bound workloads
// (W_IO-inventory: 6 GB data / 100 MB pool).
//
// Every simulated page access probes the pool, and every run builds and
// prewarms a fresh one per shard, so the pool is the hottest data
// structure in the simulator. A fully-cached pool stays dense (see Pool)
// until something needs its LRU order: no page index, no recency list,
// and a hit is one store. Otherwise the page index is an open-addressed
// table over the pool's node arena rather than a Go map: one int32 per
// cell, a fixed multiplicative hash, linear probing and backward-shift
// deletion (Knuth, TAOCP vol. 3, §6.4, Algorithm R). A probe compares
// the key through the arena node a hit touches anyway, an eviction
// leaves no tombstone behind, and nothing is allocated after New.
//
// A pool smaller than its database is prewarmed without replaying the
// warm-up's accesses: Pool.Warm installs exactly the pool that n
// replayed accesses from an AccessPattern would leave, by walking that
// access stream backwards until the pool is full.
package bufferpool

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"extsched/internal/sim"
)

// lruNode is one arena slot of the pool's intrusive recency list: prev/next
// are arena indices, -1 terminates. A dense pool's page is a last-access tick.
type lruNode struct {
	page       uint64
	prev, next int32
}

// fibMul is 2^64 / φ, the multiplier of Fibonacci hashing: the top bits
// of page·fibMul spread consecutive page ids evenly over the index.
const fibMul = 0x9E3779B97F4A7C15

// Pool is an LRU page cache with dirty-page tracking for the
// background flusher (checkpointer).
//
// A new pool is dense: slot i holds page i, a hit stores the next tick
// in its node, and a miss on page Resident() of a pool that is not full
// appends it. LRU order is a function of each page's last access
// (Mattson et al., IBM Syst. J. 1970), so the first operation that
// needs it — a miss on any other page or on a full pool, CollectDirty,
// Warm — builds the list and the index from the ticks, for good. Slots
// do not move, so the dirty bitset stays valid.
//
// The recency list is an intrusive doubly-linked list over a node
// arena rather than a container/list: a node is allocated once per
// resident slot and reused in place on eviction, so steady-state
// accesses (and pool warm-up) allocate nothing. At fleet scale — a
// thousand simulated backends each warming a pool — per-insert
// element allocation was the dominant build cost.
//
// The page index maps a page id to its arena slot. Its cells hold
// slot+1 (0 is empty); its length is the smallest power of two above
// 1.5 × capacity, so under two thirds of the cells are ever full and
// every probe ends at an empty cell, even at capacity 1. A page's home
// cell is the top bits of its Fibonacci hash, which is fixed, so runs
// stay deterministic; collisions probe forward. Page ids stay
// arbitrary uint64s, and the index costs 6–12 bytes per page of
// capacity whatever the database size, where a table indexed by page
// id would grow with the database. A Go map did the same job at about
// twice the cost per access and several times the cost per warm-up
// insert.
//
// Dirty flags are a bitset over arena slots, so the checkpointer's
// batch is a walk of the recency list from its LRU end: reproducible,
// and the pages closest to eviction are written first.
type Pool struct {
	capacity   int
	nodes      []lruNode // arena; grows to capacity, then slots recycle
	head, tail int32     // head = most recent, -1 = empty
	index      []int32   // open-addressed page index: arena slot + 1, 0 = empty
	shift      uint      // 64 − log2(len(index)): home cell = hash >> shift
	hits       uint64
	misses     uint64
	dirty      []uint64 // bit i set: arena slot i holds a dirty page
	nDirty     int
	dense      bool   // slot i holds page i; no index or list yet
	tick       uint64 // the dense state's access clock
	// evictedDirty counts dirty pages pushed out by eviction; a real
	// engine must write those back synchronously, so a high count
	// signals an undersized pool or a lazy flusher.
	evictedDirty uint64
}

// New returns a pool holding capacity pages (>= 1).
func New(capacity int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("bufferpool: capacity %d must be >= 1", capacity))
	}
	logLen := bits.Len(uint(capacity + capacity/2))
	return &Pool{
		capacity: capacity,
		dense:    true,
		head:     -1,
		tail:     -1,
		nodes:    make([]lruNode, 0, capacity),
		index:    make([]int32, 1<<logLen),
		shift:    uint(64 - logLen),
		dirty:    make([]uint64, (capacity+63)/64),
	}
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Resident returns the number of cached pages.
func (p *Pool) Resident() int { return len(p.nodes) }

// home returns page's home cell in the index.
func (p *Pool) home(page uint64) int {
	return int((page * fibMul) >> p.shift)
}

// lookup returns page's arena slot, or -1 if it is not resident.
func (p *Pool) lookup(page uint64) int32 {
	if p.dense && page < uint64(len(p.nodes)) {
		return int32(page) // any other page finds the empty index's 0
	}
	mask := len(p.index) - 1
	for c := p.home(page); ; c = (c + 1) & mask {
		s := p.index[c]
		if s == 0 {
			return -1
		}
		if p.nodes[s-1].page == page {
			return s - 1
		}
	}
}

// insert indexes arena slot i under its page, which is not resident.
func (p *Pool) insert(i int32) {
	mask := len(p.index) - 1
	c := p.home(p.nodes[i].page)
	for p.index[c] != 0 {
		c = (c + 1) & mask
	}
	p.index[c] = i + 1
}

// remove drops arena slot i from the index. Backward-shift deletion
// refills the hole with the next entry of its cluster that may legally
// sit there (its home cell is not strictly between the hole and it),
// until the cluster ends, so no tombstone is left.
func (p *Pool) remove(i int32) {
	mask := len(p.index) - 1
	hole := p.home(p.nodes[i].page)
	for p.index[hole] != i+1 {
		hole = (hole + 1) & mask
	}
	for c := (hole + 1) & mask; ; c = (c + 1) & mask {
		s := p.index[c]
		if s == 0 {
			break
		}
		if h := p.home(p.nodes[s-1].page); (c-h)&mask >= (c-hole)&mask {
			p.index[hole] = s
			hole = c
		}
	}
	p.index[hole] = 0
}

// unlink detaches arena node i from the recency list.
func (p *Pool) unlink(i int32) {
	n := p.nodes[i]
	if n.prev >= 0 {
		p.nodes[n.prev].next = n.next
	} else {
		p.head = n.next
	}
	if n.next >= 0 {
		p.nodes[n.next].prev = n.prev
	} else {
		p.tail = n.prev
	}
}

// pushFront makes arena node i the most recently used.
func (p *Pool) pushFront(i int32) {
	p.nodes[i].prev, p.nodes[i].next = -1, p.head
	if p.head >= 0 {
		p.nodes[p.head].prev = i
	}
	p.head = i
	if p.tail < 0 {
		p.tail = i
	}
}

// Hits returns the number of accesses served from the pool.
func (p *Pool) Hits() uint64 { return p.hits }

// Misses returns the number of accesses requiring disk I/O.
func (p *Pool) Misses() uint64 { return p.misses }

// HitRatio returns hits / (hits+misses), or 0 before any access.
func (p *Pool) HitRatio() float64 {
	total := p.hits + p.misses
	if total == 0 {
		return 0
	}
	return float64(p.hits) / float64(total)
}

// Access touches a page: returns true on hit. On miss the page is
// loaded (caller is responsible for charging the disk I/O), possibly
// evicting the least recently used page.
func (p *Pool) Access(page uint64) bool {
	if p.dense {
		if n := uint64(len(p.nodes)); page < n || page == n && n < uint64(p.capacity) {
			p.tick++
			if page < n {
				p.hits++
				p.nodes[page].page = p.tick
				return true
			}
			p.misses++
			p.nodes = append(p.nodes, lruNode{page: p.tick})
			return false
		}
		p.leaveDense()
		return p.Access(page)
	}
	if i := p.lookup(page); i >= 0 {
		p.hits++
		if p.head != i {
			p.unlink(i)
			p.pushFront(i)
		}
		return true
	}
	p.misses++
	var i int32
	if len(p.nodes) < p.capacity {
		i = int32(len(p.nodes))
		p.nodes = append(p.nodes, lruNode{page: page})
	} else {
		// Full: recycle the least recently used slot in place.
		i = p.tail
		p.remove(i)
		if p.clearDirty(i) {
			p.evictedDirty++
		}
		p.unlink(i)
		p.nodes[i].page = page
	}
	p.insert(i)
	p.pushFront(i)
	return false
}

// leaveDense builds a dense pool's list and index from its ticks, which
// are unique, sorting in the still-empty index: nothing is allocated.
func (p *Pool) leaveDense() {
	if !p.dense {
		return
	}
	p.dense = false
	order := p.index[:len(p.nodes)]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Compare(p.nodes[a].page, p.nodes[b].page)
	})
	for _, i := range order {
		p.pushFront(i)
	}
	clear(order)
	for i := range p.nodes {
		p.nodes[i].page = uint64(i)
		p.insert(int32(i))
	}
}

// clearDirty clears arena slot i's dirty flag and reports whether it
// was set.
func (p *Pool) clearDirty(i int32) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if p.dirty[w]&b == 0 {
		return false
	}
	p.dirty[w] &^= b
	p.nDirty--
	return true
}

// MarkDirty flags a resident page as modified. Non-resident pages are
// ignored (the write already went through on its miss path).
func (p *Pool) MarkDirty(page uint64) {
	i := p.lookup(page)
	if i < 0 {
		return
	}
	w, b := i>>6, uint64(1)<<(i&63)
	if p.dirty[w]&b == 0 {
		p.dirty[w] |= b
		p.nDirty++
	}
}

// DirtyCount returns the number of dirty resident pages.
func (p *Pool) DirtyCount() int { return p.nDirty }

// EvictedDirty returns how many dirty pages were lost to eviction
// before the flusher got to them.
func (p *Pool) EvictedDirty() uint64 { return p.evictedDirty }

// CollectDirty clears the dirty flags of up to max pages — the
// flusher's batch — and returns how many it cleared. It takes them
// from the least recently used end forward, so the pages closest to
// eviction are written first and the batch is the same on every run.
func (p *Pool) CollectDirty(max int) int {
	p.leaveDense()
	n := 0
	for i := p.tail; i >= 0 && n < max && p.nDirty > 0; i = p.nodes[i].prev {
		if p.clearDirty(i) {
			n++
		}
	}
	return n
}

// Warm fills an empty pool with exactly the pages, in exactly the
// recency order, that n calls of Access(pat.Sample(sim.NewRNG(seed,
// stream))) would leave in it, without making those calls. An LRU's
// content after any access sequence is the sequence's last capacity
// distinct pages, most recent first (Mattson et al., "Evaluation
// techniques for storage hierarchies", IBM Syst. J. 1970), so Warm
// walks the n samples backwards through sim.ReverseStream, two draws
// per sample, appends each page not yet resident at the least recently
// used end, and stops as soon as the pool is full. Hits, misses and
// dirty flags stay zero; arena slots and index cluster order may differ
// from the replay's, but nothing observable depends on them. Nothing
// is allocated.
func (p *Pool) Warm(pat AccessPattern, seed, stream uint64, n int) {
	if len(p.nodes) != 0 {
		panic("bufferpool: Warm needs an empty pool")
	}
	p.leaveDense() // empty, so there is nothing to build
	r := sim.NewReverseStream(seed, stream, 2*n)
	for len(p.nodes) < p.capacity && r.Left() > 0 {
		u := r.Uint64() // the sample's second draw comes back first
		p.appendLRU(pat.page(sim.Float64From(r.Uint64()), u))
	}
}

// appendLRU makes page, if it is not resident, the least recently used
// page of a pool that is not full. One index probe both finds a
// resident page and, failing that, the empty cell the page goes in.
func (p *Pool) appendLRU(page uint64) {
	mask := len(p.index) - 1
	c := p.home(page)
	for ; p.index[c] != 0; c = (c + 1) & mask {
		if p.nodes[p.index[c]-1].page == page {
			return
		}
	}
	i := int32(len(p.nodes))
	p.nodes = append(p.nodes, lruNode{page: page, prev: p.tail, next: -1})
	p.index[c] = i + 1
	if p.tail >= 0 {
		p.nodes[p.tail].next = i
	} else {
		p.head = i
	}
	p.tail = i
}

// ResetStats clears hit/miss counters (contents stay, so a warmed pool
// can be measured in steady state).
func (p *Pool) ResetStats() {
	p.hits, p.misses = 0, 0
}

// AccessPattern generates page accesses with a hot/cold skew: a
// fraction HotAccess of accesses touch a hot set of HotFrac·DBPages
// pages, the rest are uniform over the full database. This is the
// standard OLTP locality model; with HotAccess=0.8, HotFrac=0.2 it is
// the classic 80/20 rule.
type AccessPattern struct {
	DBPages   uint64  // database size in pages
	HotFrac   float64 // fraction of pages in the hot set
	HotAccess float64 // probability an access goes to the hot set
}

// Validate checks the pattern's parameters.
func (a AccessPattern) Validate() error {
	if a.DBPages < 1 {
		return fmt.Errorf("bufferpool: DBPages %d must be >= 1", a.DBPages)
	}
	if a.HotFrac <= 0 || a.HotFrac > 1 {
		return fmt.Errorf("bufferpool: HotFrac %v must be in (0,1]", a.HotFrac)
	}
	if a.HotAccess < 0 || a.HotAccess > 1 {
		return fmt.Errorf("bufferpool: HotAccess %v must be in [0,1]", a.HotAccess)
	}
	return nil
}

// Sample draws a page id: one Float64 draw picks the hot or the cold
// set, then one Uint64 draw picks the page in it.
func (a AccessPattern) Sample(g *sim.RNG) uint64 {
	f := g.Float64()
	return a.page(f, g.Uint64())
}

// page is Sample's rule as a function of its two draws: f, the Float64
// variate, and u, the Uint64 draw that follows it.
func (a AccessPattern) page(f float64, u uint64) uint64 {
	hot := uint64(float64(a.DBPages) * a.HotFrac)
	if hot < 1 {
		hot = 1
	}
	if f < a.HotAccess || a.DBPages == hot {
		return u % hot
	}
	return hot + u%(a.DBPages-hot)
}

// ExpectedMissRatio approximates the steady-state miss ratio of an LRU
// pool of the given capacity under this pattern using Che's
// characteristic-time approximation: a page with access probability p
// is resident with probability 1 − e^(−p·T), where T solves
// Σ_pages (1 − e^(−p·T)) = capacity. It captures the cold-access
// pollution that evicts hot pages, which a naive "hot pages stay
// cached" model misses. Used by the analytic jump-start; the simulator
// runs the real LRU; float64(a*b) keeps a product from fusing into an add.
func (a AccessPattern) ExpectedMissRatio(capacity int) float64 {
	total := float64(a.DBPages)
	c := float64(capacity)
	if c >= total {
		return 0
	}
	hot := math.Max(1, math.Floor(total*a.HotFrac))
	cold := total - hot
	pHot := a.HotAccess / hot
	var pCold float64
	if cold > 0 {
		pCold = (1 - a.HotAccess) / cold
	}
	// Occupancy as a function of the characteristic time T.
	occupancy := func(t float64) float64 {
		occ := float64(hot * (1 - math.Exp(-pHot*t)))
		if cold > 0 {
			occ += float64(cold * (1 - math.Exp(-pCold*t)))
		}
		return occ
	}
	// Bisect for T with occupancy(T) = capacity. Occupancy is
	// increasing in T from 0 to DBPages.
	lo, hi := 0.0, 1.0
	for occupancy(hi) < c {
		hi *= 2
		if hi > 1e18 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if occupancy(mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	miss := float64(a.HotAccess * math.Exp(-pHot*t))
	if cold > 0 {
		miss += float64((1 - a.HotAccess) * math.Exp(-pCold*t))
	}
	return miss
}
