package core

import (
	"math"
	"testing"

	"extsched/internal/sim"
)

func wfqItem2(class Class, size float64, seq uint64) *Item {
	return &Item{Class: class, SizeHint: size, seq: seq}
}

func TestWFQSharesBacklogByWeight(t *testing.T) {
	// Persistent backlog of equal-size transactions in two classes with
	// weights 3:1: among the first N dispatches, the high class should
	// get ~3/4.
	p := NewWFQ(map[Class]float64{ClassHigh: 3, ClassLow: 1})
	var seq uint64
	for i := 0; i < 400; i++ {
		p.Push(wfqItem2(ClassHigh, 1, seq))
		seq++
		p.Push(wfqItem2(ClassLow, 1, seq))
		seq++
	}
	high := 0
	for i := 0; i < 200; i++ {
		if p.Pop().Class == ClassHigh {
			high++
		}
	}
	frac := float64(high) / 200
	if math.Abs(frac-0.75) > 0.05 {
		t.Errorf("high-class dispatch fraction = %v, want ~0.75", frac)
	}
}

func TestWFQNoStarvation(t *testing.T) {
	// Unlike strict priority, WFQ keeps serving the low class even
	// under continuous high-class pressure.
	p := NewWFQ(map[Class]float64{ClassHigh: 10, ClassLow: 1})
	var seq uint64
	for i := 0; i < 100; i++ {
		p.Push(wfqItem2(ClassHigh, 1, seq))
		seq++
	}
	p.Push(wfqItem2(ClassLow, 1, seq))
	lowSeen := false
	for i := 0; i < 30 && p.Len() > 0; i++ {
		if p.Pop().Class == ClassLow {
			lowSeen = true
			break
		}
	}
	if !lowSeen {
		t.Error("low class starved within 30 dispatches at weight ratio 10:1")
	}
}

func TestWFQSizeAware(t *testing.T) {
	// Equal weights but class A sends jobs 4x larger: B should get ~4x
	// the dispatch COUNT (equal demand share).
	p := NewWFQ(map[Class]float64{})
	var seq uint64
	for i := 0; i < 400; i++ {
		p.Push(wfqItem2(ClassHigh, 4, seq))
		seq++
		p.Push(wfqItem2(ClassLow, 1, seq))
		seq++
	}
	big := 0
	for i := 0; i < 200; i++ {
		if p.Pop().Class == ClassHigh {
			big++
		}
	}
	frac := float64(big) / 200
	if math.Abs(frac-0.2) > 0.05 {
		t.Errorf("large-job class dispatch fraction = %v, want ~0.2 (1/(1+4))", frac)
	}
}

func TestWFQFIFOWithinClass(t *testing.T) {
	p := NewWFQ(nil)
	a := wfqItem2(ClassLow, 1, 1)
	b := wfqItem2(ClassLow, 1, 2)
	c := wfqItem2(ClassLow, 1, 3)
	p.Push(a)
	p.Push(b)
	p.Push(c)
	if p.Pop() != a || p.Pop() != b || p.Pop() != c {
		t.Error("same-class order not FIFO")
	}
}

func TestWFQEmptyAndConservation(t *testing.T) {
	p := NewWFQ(map[Class]float64{ClassHigh: 2})
	if p.Pop() != nil || p.Len() != 0 {
		t.Error("empty WFQ misbehaves")
	}
	g := sim.NewRNG(1, 0)
	pushed := map[*Item]bool{}
	var seq uint64
	for i := 0; i < 3000; i++ {
		if g.IntN(2) == 0 {
			tx := wfqItem2(Class(g.IntN(4)), 0.1+g.Float64(), seq)
			seq++
			pushed[tx] = true
			p.Push(tx)
		} else if tx := p.Pop(); tx != nil {
			if !pushed[tx] {
				t.Fatal("popped unknown txn")
			}
			delete(pushed, tx)
		}
	}
	for tx := p.Pop(); tx != nil; tx = p.Pop() {
		delete(pushed, tx)
	}
	if len(pushed) != 0 {
		t.Errorf("%d transactions lost", len(pushed))
	}
}

func TestWFQZeroSizeDefaultsToUnit(t *testing.T) {
	p := NewWFQ(nil)
	p.Push(wfqItem2(ClassLow, 0, 1)) // unknown size
	if p.Pop() == nil {
		t.Error("zero-size transaction lost")
	}
}

func TestWFQInvalidWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive weight did not panic")
		}
	}()
	NewWFQ(map[Class]float64{ClassHigh: 0})
}

func TestWFQEndToEndSharing(t *testing.T) {
	// Integration: saturated MPL-1 system, classes at weights 3:1 with
	// equal-size jobs → completed counts near 3:1.
	eng, fe := rig(t, 1, NewWFQ(map[Class]float64{ClassHigh: 3, ClassLow: 1}))
	highDone, lowDone := 0, 0
	fe.OnComplete = func(it *Item) {
		if it.Class == ClassHigh {
			highDone++
		} else {
			lowDone++
		}
	}
	for i := 0; i < 300; i++ {
		submit(fe, 0.01, ClassHigh)
		submit(fe, 0.01, ClassLow)
	}
	eng.Run(1.5) // ~150 completions at 10ms each, backlog persists
	ratio := float64(highDone) / float64(lowDone)
	if ratio < 2.2 || ratio > 4 {
		t.Errorf("completion ratio = %v (%d:%d), want ~3", ratio, highDone, lowDone)
	}
	eng.RunAll()
}

// TestSetWFQWeightsReplacesMap pins the SetWeights contract the
// tenant-keyed set_weights event relies on: each call replaces the
// whole weight map, so a class left out of the newer map falls back to
// weight 1 rather than keeping its old weight.
func TestSetWFQWeightsReplacesMap(t *testing.T) {
	p := NewWFQ(nil)
	_, fe := rig(t, 1, p)
	if !fe.SetWFQWeights(map[Class]float64{1: 2, 0: 5}) {
		t.Fatal("SetWFQWeights reported a non-WFQ policy")
	}
	if w0, w1 := p.weight(0), p.weight(1); w0 != 5 || w1 != 2 {
		t.Fatalf("weights after the first call = %v/%v, want 5/2", w0, w1)
	}
	fe.SetWFQWeights(map[Class]float64{1: 3})
	if w0, w1 := p.weight(0), p.weight(1); w0 != 1 || w1 != 3 {
		t.Errorf("weights after the second call = %v/%v, want 1 (class 0 dropped from the map) and 3", w0, w1)
	}
}

// TestWFQPushPopZeroAlloc pins the WFQ queue at zero allocations once
// its heap has grown: items are kept as concrete values, never boxed.
func TestWFQPushPopZeroAlloc(t *testing.T) {
	p := NewWFQ(map[Class]float64{ClassHigh: 3, ClassLow: 1})
	items := make([]*Item, 64)
	for i := range items {
		items[i] = wfqItem2(Class(i%2), float64(1+i%5), uint64(i))
	}
	cycle := func() {
		for _, it := range items {
			p.Push(it)
		}
		for p.Len() > 0 {
			p.Pop()
		}
	}
	cycle() // grow the heap and the per-class tags
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("WFQ push+pop of %d items allocates %v per run, want 0", len(items), n)
	}
}

// TestWFQPopOrderIsTotal checks the heap pops in (start, seq) order
// whatever the push order: the order is total, so it is the same order
// any correct heap produces.
func TestWFQPopOrderIsTotal(t *testing.T) {
	rng := sim.NewRNG(3, 0)
	p := NewWFQ(nil)
	for i := 0; i < 500; i++ {
		p.q.push(wfqItem{item: &Item{}, start: float64(rng.IntN(40)), seq: uint64(rng.IntN(1 << 20))})
	}
	prev := p.q.pop()
	for p.Len() > 0 {
		cur := p.q.pop()
		if cur.before(prev) {
			t.Fatalf("popped (%v, %d) after (%v, %d)", cur.start, cur.seq, prev.start, prev.seq)
		}
		prev = cur
	}
}
