package core

import "math"

// WFQPolicy implements start-time fair queueing over priority classes:
// each class receives external-queue dispatch capacity in proportion
// to its weight, measured in estimated service demand. It generalizes
// the paper's two-class priority experiment to the class-based QoS
// sharing of the authors' companion work (Schroeder et al., "Achieving
// class-based QoS for transactional workloads", ICDE'06 [22]): strict
// priority starves the low class under backlog, WFQ guarantees it a
// configurable fraction.
//
// Tags follow SFQ: an item's start tag is max(global virtual time, its
// class's last finish tag); its finish tag adds size/weight. Dispatch
// order is by start tag (ties by arrival), and the global virtual time
// advances to the dispatched start tag.
type WFQPolicy struct {
	weights map[Class]float64
	vtime   float64
	classF  map[Class]float64
	q       wfqHeap
}

// wfqItem decorates a queued item with its tags.
type wfqItem struct {
	item  *Item
	start float64
	seq   uint64
}

// before reports whether a dispatches before b: smaller start tag
// first, ties by arrival. (start, seq) is a total order, so the pop
// order does not depend on the heap's shape.
func (a wfqItem) before(b wfqItem) bool {
	if a.start != b.start {
		return a.start < b.start
	}
	return a.seq < b.seq
}

// wfqHeap is a binary min-heap of tagged items, kept as concrete
// values: no interface boxing on push or pop.
type wfqHeap []wfqItem

func (h *wfqHeap) push(it wfqItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *wfqHeap) pop() wfqItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = wfqItem{}
	*h = q[:n]
	h.down(0)
	return top
}

// down sifts the item at i toward the leaves.
func (h wfqHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// NewWFQ builds the policy with per-class weights (> 0). Classes
// absent from the map default to weight 1.
func NewWFQ(weights map[Class]float64) *WFQPolicy {
	w := make(map[Class]float64, len(weights))
	for c, v := range weights {
		if v <= 0 {
			panic("core: WFQ weights must be positive")
		}
		w[c] = v
	}
	return &WFQPolicy{weights: w, classF: make(map[Class]float64)}
}

func (p *WFQPolicy) Name() string { return "wfq" }

// SetWeights replaces the per-class weights (> 0; classes absent from
// the map revert to weight 1). Future charges use the new weights;
// tags already assigned to queued items stand, so the change takes
// effect over roughly one queue's worth of arrivals rather than
// reshuffling the backlog.
func (p *WFQPolicy) SetWeights(weights map[Class]float64) {
	w := make(map[Class]float64, len(weights))
	for c, v := range weights {
		if v <= 0 {
			panic("core: WFQ weights must be positive")
		}
		w[c] = v
	}
	p.weights = w
}

func (p *WFQPolicy) weight(c Class) float64 {
	if w, ok := p.weights[c]; ok {
		return w
	}
	return 1
}

// charge is the virtual-time cost an item adds to its class's finish
// tag: size over weight, unknown sizes costing one unit.
func (p *WFQPolicy) charge(it *Item) float64 {
	size := it.SizeHint
	if size <= 0 {
		size = 1 // unknown sizes get unit cost
	}
	return size / p.weight(it.Class)
}

// Push tags the item and enqueues it.
func (p *WFQPolicy) Push(it *Item) {
	c := it.Class
	start := math.Max(p.vtime, p.classF[c])
	p.classF[c] = start + p.charge(it)
	p.q.push(wfqItem{item: it, start: start, seq: it.seq})
}

// discarded refunds a canceled item's enqueue-time charge, clamped to
// the global virtual time, so a class whose callers cancel (timeouts
// under saturation) does not permanently forfeit its weighted share of
// future dispatches. The clamp keeps start tags valid; in the rare
// case a same-class item was pushed after the canceled one, its
// already-assigned later tag stands (a one-item ordering wrinkle, not
// a share leak).
func (p *WFQPolicy) discarded(it *Item) {
	c := it.Class
	p.classF[c] = math.Max(p.vtime, p.classF[c]-p.charge(it))
}

// compact drops queued items failing keep and restores the heap.
func (p *WFQPolicy) compact(keep func(*Item) bool) {
	kept := p.q[:0]
	for _, wi := range p.q {
		if keep(wi.item) {
			kept = append(kept, wi)
		}
	}
	for i := len(kept); i < len(p.q); i++ {
		p.q[i] = wfqItem{}
	}
	p.q = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		kept.down(i)
	}
}

// Pop dispatches the item with the smallest start tag and advances the
// virtual clock.
func (p *WFQPolicy) Pop() *Item {
	if len(p.q) == 0 {
		return nil
	}
	it := p.q.pop()
	if it.start > p.vtime {
		p.vtime = it.start
	}
	return it.item
}

func (p *WFQPolicy) Len() int { return len(p.q) }
