package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"extsched/internal/sim"
)

// TestShedDeliveryAllocatesNothing pins the dispatch-time shed path at
// zero allocations: one cycle queues several items, lets their admit
// deadlines pass, queues one more, and completes the running item, so
// a single dispatch sheds the expired ones and admits the last. The
// items, the done callback and the OnShed hook are reused across
// cycles, as the simulator's recycled transactions reuse theirs.
func TestShedDeliveryAllocatesNothing(t *testing.T) {
	const victims = 4
	eng := sim.NewEngine()
	var running *Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { running = it }), 1, NewFIFO())
	fe.SetAdmitDeadline(ClassLow, 0.5)
	var delivered, hooked int
	done := func(*Item) { delivered++ }
	fe.OnShed = func(*Item) { hooked++ }

	first := &Item{}
	fe.Submit(first, nil)
	items := make([]*Item, victims+1)
	for i := range items {
		items[i] = &Item{}
	}
	cycle := func() {
		for _, it := range items[:victims] {
			it.Deadline = 0
			fe.Submit(it, done)
		}
		eng.Run(eng.Now() + 1)
		survivor := items[victims]
		survivor.Deadline = 0
		fe.Submit(survivor, nil)
		prev := running
		fe.Complete(prev, Outcome{})
		if running != survivor {
			t.Fatal("the unexpired item was not admitted")
		}
		items[victims] = prev // the completed item queues next cycle
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("%v allocations per shedding dispatch, want 0", allocs)
	}
	if delivered != hooked || delivered != int(fe.Shed()) || delivered != 101*victims {
		t.Errorf("delivered %d, hooked %d, Shed %d, want %d each", delivered, hooked, fe.Shed(), 101*victims)
	}
}

// TestShedPastDeadlineOnFreshClock: a pre-set deadline is an absolute
// clock time, and only 0 means none. On a clock that starts at 0, a
// deadline already past when the item is built is negative; it must
// shed the item at its dispatch, as an expired positive one does,
// instead of letting it wait for a slot.
func TestShedPastDeadlineOnFreshClock(t *testing.T) {
	eng := sim.NewEngine()
	var running *Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { running = it }), 1, NewFIFO())
	blocker := &Item{}
	fe.Submit(blocker, nil)
	negative := &Item{Deadline: eng.Now() - 1}
	positive := &Item{Deadline: 0.5}
	survivor := &Item{}
	for _, it := range []*Item{negative, positive, survivor} {
		fe.Submit(it, nil)
	}
	eng.Run(1)
	fe.Complete(blocker, Outcome{})
	if !negative.WasShed() || !positive.WasShed() {
		t.Errorf("shed: negative deadline %v, positive deadline %v; want both", negative.WasShed(), positive.WasShed())
	}
	if running != survivor {
		t.Error("the item without a deadline was not the one admitted")
	}
	if fe.Shed() != 2 {
		t.Errorf("Shed = %d, want 2", fe.Shed())
	}
}

// TestShedDeliveryOrderAndReentry pins the delivery contract of the
// sheds one dispatch collects: each item's done callback, then the
// OnShed hook, in pop order, all before the admitted item's Exec; a
// done callback that resubmits (a closed-loop client) re-enters
// dispatch, which sheds again, and every submission is delivered
// exactly once; and no item is left linked once delivered.
func TestShedDeliveryOrderAndReentry(t *testing.T) {
	eng := sim.NewEngine()
	var log, linked []string
	record := func(event string, it *Item) {
		e := fmt.Sprintf("%s %v", event, it.Payload)
		log = append(log, e)
		if it.shedNext != nil {
			linked = append(linked, e)
		}
	}
	fe := New(eng.Clock(), backendFunc(func(it *Item) { record("exec", it) }), 1, NewFIFO())
	fe.OnShed = func(it *Item) { record("hook", it) }
	note := func(it *Item) { record("done", it) }

	// Order: four items expire behind a running one; the completion's
	// dispatch sheds all four and admits the fifth.
	blocker := &Item{Payload: "b"}
	fe.Submit(blocker, nil)
	items := make([]*Item, 5)
	for i := range items {
		items[i] = &Item{Payload: i, Deadline: 0.5}
		done := note
		if i == len(items)-1 {
			items[i].Deadline, done = 0, nil
		}
		fe.Submit(items[i], done)
	}
	eng.Run(1)
	log = log[:0]
	fe.Complete(blocker, Outcome{})
	want := []string{"done 0", "hook 0", "done 1", "hook 1", "done 2", "hook 2", "done 3", "hook 3", "exec 4"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("delivery order\n got %v\nwant %v", log, want)
	}

	// Re-entry: three expired items behind the running one; each done
	// callback resubmits its item twice more with the deadline still
	// past, so the nested dispatches shed it again from inside the
	// outer delivery loop.
	const rounds = 3
	var resubmit func(*Item)
	counts := map[any]int{}
	resubmit = func(it *Item) {
		note(it)
		counts[it.Payload]++
		if counts[it.Payload] < rounds {
			fe.Submit(it, resubmit)
		}
	}
	runner := items[4]
	again := make([]*Item, 3)
	for i := range again {
		again[i] = &Item{Payload: fmt.Sprintf("r%d", i), Deadline: 1.5}
		fe.Submit(again[i], resubmit)
	}
	eng.Run(2)
	log = log[:0]
	fe.Complete(runner, Outcome{})
	want = nil
	for i := range again {
		for r := 0; r < rounds; r++ {
			want = append(want, fmt.Sprintf("done r%d", i))
		}
		for r := 0; r < rounds; r++ {
			want = append(want, fmt.Sprintf("hook r%d", i))
		}
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("re-entrant delivery\n got %v\nwant %v", log, want)
	}
	if got, want := fe.Shed(), uint64(4+rounds*len(again)); got != want {
		t.Errorf("Shed = %d, want %d", got, want)
	}
	if n := fe.QueueLen() + fe.Inside(); n != 0 {
		t.Errorf("%d items still queued or inside, want 0", n)
	}
	if len(linked) != 0 {
		t.Errorf("items still linked when delivered: %v", linked)
	}
	for _, it := range append(items, again...) {
		if it.shedNext != nil {
			t.Errorf("item %v still linked after delivery", it.Payload)
		}
	}
}

// TestShedConcurrentDispatchers drives dispatch-time shedding from many
// goroutines over the wall clock (run it with -race): each submits
// items with short or already-passed deadlines, cancels some while
// queued, and completes the ones it is handed. At quiescence every
// item has exactly one outcome — shed and completed items saw their
// done callback exactly once, canceled ones never — and the outcomes
// add up to the submissions and to the frontend's own counters.
func TestShedConcurrentDispatchers(t *testing.T) {
	const workers = 8
	iters := 2000
	if testing.Short() {
		iters = 400
	}
	const (
		wasShed = iota + 1
		wasCompleted
		wasCanceled
	)
	type ticket struct {
		ch      chan struct{} // one token: admitted (Exec) or shed (done)
		shed    atomic.Bool
		calls   atomic.Int32
		outcome int // written by the owning worker only
	}
	clock := sim.NewWallClock()
	fe := New(clock, backendFunc(func(it *Item) { it.Payload.(*ticket).ch <- struct{}{} }), 2, NewFIFO())
	fe.SetAdmitDeadline(ClassLow, 200e-6)
	done := func(it *Item) {
		tk := it.Payload.(*ticket)
		tk.calls.Add(1)
		if it.WasShed() {
			tk.shed.Store(true)
			tk.ch <- struct{}{}
		}
	}

	var shed, completed, canceled atomic.Uint64
	tickets := make([][]*ticket, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				tk := &ticket{ch: make(chan struct{}, 1)}
				tickets[w] = append(tickets[w], tk)
				it := &Item{Payload: tk}
				if rng.Intn(4) == 0 {
					it.Deadline = math.SmallestNonzeroFloat64 // already past
				}
				fe.Submit(it, done)
				if rng.Intn(4) == 0 && fe.CancelQueued(it) {
					tk.outcome = wasCanceled
					canceled.Add(1)
					continue
				}
				<-tk.ch
				if tk.shed.Load() {
					tk.outcome = wasShed
					shed.Add(1)
					continue
				}
				fe.Complete(it, Outcome{})
				tk.outcome = wasCompleted
				completed.Add(1)
			}
		}(w)
	}
	wg.Wait()

	for w := range tickets {
		for i, tk := range tickets[w] {
			if len(tk.ch) != 0 {
				t.Fatalf("worker %d item %d: an extra admission or shed token", w, i)
			}
			want := int32(1)
			if tk.outcome == wasCanceled {
				want = 0 // withdrawn while queued: no callback
			}
			if got := tk.calls.Load(); got != want {
				t.Fatalf("worker %d item %d: done fired %d times, want %d", w, i, got, want)
			}
		}
	}
	t.Logf("shed %d, completed %d, canceled %d", shed.Load(), completed.Load(), canceled.Load())
	total := uint64(workers * iters)
	if shed.Load()+completed.Load()+canceled.Load() != total {
		t.Errorf("shed %d + completed %d + canceled %d != submitted %d",
			shed.Load(), completed.Load(), canceled.Load(), total)
	}
	if fe.Shed() != shed.Load() || fe.Canceled() != canceled.Load() {
		t.Errorf("frontend counts shed %d canceled %d, workers saw %d and %d",
			fe.Shed(), fe.Canceled(), shed.Load(), canceled.Load())
	}
	if shed.Load() == 0 || completed.Load() == 0 {
		t.Errorf("shed %d, completed %d: want both paths exercised", shed.Load(), completed.Load())
	}
	if n := fe.QueueLen() + fe.Inside(); n != 0 {
		t.Errorf("%d items still queued or inside at quiescence", n)
	}
}
