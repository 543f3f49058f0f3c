package core

import (
	"sync"
	"testing"
	"unsafe"

	"extsched/internal/sim"
)

// TestFastPathZeroAlloc pins the lock-free admission path's allocation
// count at zero: both TryAcquire+Complete (the live gate's synchronous
// path) and Submit+Complete on an uncontended frontend must not
// allocate — the whole point of the packed-word fast path.
func TestFastPathZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	fe := New(eng.Clock(), backendFunc(func(it *Item) {}), 0, NewFIFO())

	it := &Item{Class: ClassHigh}
	if n := testing.AllocsPerRun(100, func() {
		if !fe.TryAcquire(it) {
			t.Fatal("TryAcquire failed on an unlimited gate")
		}
		fe.Complete(it, Outcome{})
	}); n != 0 {
		t.Errorf("TryAcquire+Complete allocates %v/op, want 0", n)
	}

	done := false
	exec := backendFunc(func(it *Item) { done = true })
	fe2 := New(eng.Clock(), exec, 0, NewFIFO())
	it2 := &Item{Class: ClassLow}
	if n := testing.AllocsPerRun(100, func() {
		done = false
		if !fe2.Submit(it2, nil) {
			t.Fatal("Submit failed on an unlimited gate")
		}
		if !done {
			t.Fatal("Submit fast path did not Exec synchronously")
		}
		fe2.Complete(it2, Outcome{})
	}); n != 0 {
		t.Errorf("Submit+Complete allocates %v/op, want 0", n)
	}
}

// TestTryAcquireFallsBack enumerates every condition that must push an
// admission off the lock-free path: TryAcquire returns false (leaving
// the item untouched) whenever correctness needs the mutex.
func TestTryAcquireFallsBack(t *testing.T) {
	eng := sim.NewEngine()

	t.Run("gate full", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 1, NewFIFO())
		a := &Item{}
		if !fe.TryAcquire(a) {
			t.Fatal("first TryAcquire should admit")
		}
		if fe.TryAcquire(&Item{}) {
			t.Error("TryAcquire admitted past MPL=1")
		}
		fe.Complete(a, Outcome{})
	})

	t.Run("queued waiter", func(t *testing.T) {
		var execs []*Item
		var fe *Frontend
		fe = New(eng.Clock(), backendFunc(func(it *Item) { execs = append(execs, it) }), 1, NewFIFO())
		a := &Item{}
		if !fe.TryAcquire(a) {
			t.Fatal("first TryAcquire should admit")
		}
		b := &Item{}
		fe.Submit(b, nil) // queues behind a
		if fe.QueueLen() != 1 {
			t.Fatalf("QueueLen=%d, want 1", fe.QueueLen())
		}
		fe.Complete(a, Outcome{})
		if len(execs) != 1 || execs[0] != b {
			t.Fatal("queued item did not dispatch on Complete")
		}
		fe.Complete(b, Outcome{})
		// Queue drained: the slow flag must have cleared, so the fast
		// path works again.
		c := &Item{}
		if !fe.TryAcquire(c) {
			t.Error("TryAcquire still slow after the queue drained")
		}
		fe.Complete(c, Outcome{})
	})

	t.Run("class limits armed", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		fe.SetClassLimits(map[Class]int{ClassHigh: 2})
		if fe.TryAcquire(&Item{}) {
			t.Error("TryAcquire bypassed an armed class partition")
		}
		fe.SetClassLimits(nil)
		it := &Item{}
		if !fe.TryAcquire(it) {
			t.Error("TryAcquire still slow after partition cleared")
		}
		fe.Complete(it, Outcome{})
	})

	t.Run("admit deadline armed", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		fe.SetAdmitDeadline(ClassHigh, 1.5)
		if fe.TryAcquire(&Item{Class: ClassLow}) {
			t.Error("TryAcquire bypassed an armed admit deadline (any class forces slow)")
		}
		fe.SetAdmitDeadline(ClassHigh, 0)
		it := &Item{}
		if !fe.TryAcquire(it) {
			t.Error("TryAcquire still slow after deadline cleared")
		}
		fe.Complete(it, Outcome{})
	})

	t.Run("pre-set item deadline", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		if fe.TryAcquire(&Item{Deadline: 99}) {
			t.Error("TryAcquire admitted an item carrying a deadline")
		}
	})

}

// TestEveryClassTakesFastPath checks that the fast path serves any
// class in [0, MaxClass] — a class's first admission only creates its
// record — and that a class outside the range is rejected.
func TestEveryClassTakesFastPath(t *testing.T) {
	eng := sim.NewEngine()

	t.Run("class 8", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		it := &Item{Class: 8}
		if !fe.TryAcquire(it) {
			t.Fatal("TryAcquire refused class 8")
		}
		fe.Complete(it, Outcome{})
		if n := fe.class(8).inside.Load(); n != 0 || fe.Inside() != 0 {
			t.Errorf("class 8 inside %d, Inside %d after completion, want 0/0", n, fe.Inside())
		}
	})

	t.Run("class 200 after the slow path", func(t *testing.T) {
		var execs []*Item
		fe := New(eng.Clock(), backendFunc(func(it *Item) { execs = append(execs, it) }), 1, NewFIFO())
		a := &Item{}
		if !fe.TryAcquire(a) {
			t.Fatal("first TryAcquire should admit")
		}
		b := &Item{Class: 200}
		fe.Submit(b, nil) // queues behind a: the slow path sees class 200
		fe.Complete(a, Outcome{})
		if len(execs) != 1 || execs[0] != b {
			t.Fatal("queued class-200 item did not dispatch on Complete")
		}
		fe.Complete(b, Outcome{})
		c := &Item{Class: 200}
		if !fe.TryAcquire(c) {
			t.Fatal("TryAcquire refused class 200 once the slow path had seen it")
		}
		fe.Complete(c, Outcome{})
		if n := fe.class(200).inside.Load(); n != 0 || fe.Inside() != 0 {
			t.Errorf("class 200 inside %d, Inside %d after completion, want 0/0", n, fe.Inside())
		}
	})

	t.Run("MaxClass", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		it := &Item{Class: MaxClass}
		if !fe.TryAcquire(it) {
			t.Fatal("TryAcquire refused MaxClass")
		}
		fe.Complete(it, Outcome{})
	})

	t.Run("out of range", func(t *testing.T) {
		fe := New(eng.Clock(), backendFunc(func(*Item) {}), 4, NewFIFO())
		for name, call := range map[string]func(){
			"TryAcquire(-1)":               func() { fe.TryAcquire(&Item{Class: -1}) },
			"Submit(MaxClass+1)":           func() { fe.Submit(&Item{Class: MaxClass + 1}, nil) },
			"SetClassLimits(-1)":           func() { fe.SetClassLimits(map[Class]int{-1: 1}) },
			"SetAdmitDeadline(MaxClass+1)": func() { fe.SetAdmitDeadline(MaxClass+1, 1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s did not panic", name)
					}
				}()
				call()
			}()
		}
		if fe.Inside() != 0 || fe.QueueLen() != 0 {
			t.Errorf("a rejected class left inside %d, queued %d", fe.Inside(), fe.QueueLen())
		}
	})
}

// TestClassTableGrowthRace admits and completes items of existing
// classes on the fast path from several goroutines while another
// goroutine keeps submitting new classes, each of which adds a record
// and some of which grow the class table. Run it with -race: a
// fast-path count update lost to a table copy would leave a class's
// inside count nonzero at quiescence.
func TestClassTableGrowthRace(t *testing.T) {
	const workers = 4
	iters, newClasses := 5000, 2000
	if testing.Short() {
		iters, newClasses = 1000, 500
	}
	fe := New(sim.NewWallClock(), backendFunc(func(*Item) {}), 0, NewFIFO())
	for c := Class(0); c < workers; c++ {
		it := &Item{Class: c} // an existing record per worker
		fe.Submit(it, nil)
		fe.Complete(it, Outcome{})
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(c Class) {
			defer wg.Done()
			it := &Item{Class: c}
			for i := 0; i < iters; i++ {
				// Unlimited MPL and nothing ever queues, so the fast
				// path must always admit.
				if !fe.TryAcquire(it) {
					t.Errorf("class %d: TryAcquire refused an idle unlimited gate", c)
					return
				}
				fe.Complete(it, Outcome{})
			}
		}(Class(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for c := Class(workers); c < Class(workers+newClasses); c++ {
			it := &Item{Class: c}
			fe.Submit(it, nil)
			fe.Complete(it, Outcome{})
		}
	}()
	wg.Wait()

	if got := fe.Inside(); got != 0 {
		t.Errorf("Inside = %d at quiescence, want 0", got)
	}
	table := fe.table()
	if len(table) < workers+newClasses {
		t.Errorf("class table holds %d classes, want >= %d", len(table), workers+newClasses)
	}
	for c, cs := range table {
		if n := cs.inside.Load(); n != 0 {
			t.Errorf("class %d inside = %d at quiescence, want 0", c, n)
		}
	}
}

// TestSetMPLShrinkBelowInflight verifies the lock-free counter's shrink
// semantics: lowering the limit below the current inflight count must
// not underflow, must not admit anything until the overshoot drains,
// and must not strand queued waiters once it has.
func TestSetMPLShrinkBelowInflight(t *testing.T) {
	eng := sim.NewEngine()
	var execs []*Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { execs = append(execs, it) }), 4, NewFIFO())

	var inside []*Item
	for i := 0; i < 4; i++ {
		it := &Item{}
		if !fe.TryAcquire(it) {
			t.Fatalf("admit %d failed below MPL", i)
		}
		inside = append(inside, it)
	}
	fe.SetMPL(2)
	if got := fe.Inside(); got != 4 {
		t.Fatalf("Inside=%d after shrink, want 4 (overshoot drains, never truncates)", got)
	}
	if fe.TryAcquire(&Item{}) {
		t.Fatal("TryAcquire admitted while inflight exceeds the shrunken limit")
	}
	q := &Item{}
	fe.Submit(q, nil) // queues: 4 inside >= limit 2
	if len(execs) != 0 || fe.QueueLen() != 1 {
		t.Fatalf("submit during overshoot: execs=%d queued=%d, want 0/1", len(execs), fe.QueueLen())
	}
	fe.Complete(inside[0], Outcome{}) // 3 >= 2: still no room
	fe.Complete(inside[1], Outcome{}) // 2 >= 2: still no room
	if len(execs) != 0 {
		t.Fatalf("queued item dispatched while inside >= limit")
	}
	fe.Complete(inside[2], Outcome{}) // 1 < 2: waiter must wake
	if len(execs) != 1 || execs[0] != q {
		t.Fatalf("queued item stranded after the overshoot drained (execs=%d)", len(execs))
	}
	fe.Complete(inside[3], Outcome{})
	fe.Complete(q, Outcome{})
	if got := fe.Inside(); got != 0 {
		t.Fatalf("Inside=%d after drain, want 0 (underflow check)", got)
	}
	if fe.QueueLen() != 0 {
		t.Fatalf("QueueLen=%d after drain, want 0", fe.QueueLen())
	}
}

// TestFastPathHotLine pins the Frontend layout its doc describes: the
// fields every fast admit and release writes — the gate word and the
// inside counters of classes 0 and 1 — fill the first cache line with
// nothing read-mostly beside them, and the struct stays large enough
// (512 bytes) for the allocator to start it on a line boundary.
func TestFastPathHotLine(t *testing.T) {
	var f Frontend
	if size := unsafe.Sizeof(f); size < 512 {
		t.Errorf("Frontend is %d bytes, under the 512 that align it to a cache line", size)
	}
	if off := unsafe.Offsetof(f.word); off != 0 {
		t.Errorf("word at offset %d, want 0", off)
	}
	if end := unsafe.Offsetof(f.first) + unsafe.Sizeof(f.first[0]) + unsafe.Sizeof(f.first[1].inside); end > 64 {
		t.Errorf("class 1's inside counter ends at byte %d, past the first cache line", end)
	}
	if off := unsafe.Offsetof(f.clock); off < 64 {
		t.Errorf("the read-mostly fields start at byte %d, inside the hot first line", off)
	}
}
