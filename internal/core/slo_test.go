package core

import (
	"testing"

	"extsched/internal/sim"
	"extsched/internal/stats"
)

// backendFunc is defined in core_test.go; these tests reuse it.

// TestDeadlineExpiredNeverDispatches pins the shedding contract: a
// queued item whose admission deadline passes before a slot frees is
// shed — its done callback and the OnShed hook fire, it is counted in
// Shed, and the backend NEVER executes it.
func TestDeadlineExpiredNeverDispatches(t *testing.T) {
	eng := sim.NewEngine()
	var executed []*Item
	var fe *Frontend
	fe = New(eng.Clock(), backendFunc(func(it *Item) { executed = append(executed, it) }), 1, NewFIFO())
	fe.SetAdmitDeadline(ClassLow, 0.5)

	var shedHook []*Item
	fe.OnShed = func(it *Item) { shedHook = append(shedHook, it) }

	blocker := &Item{}
	fe.Submit(blocker, nil)
	if len(executed) != 1 {
		t.Fatalf("blocker not dispatched")
	}

	var doneCalls []*Item
	victim := &Item{}
	fe.Submit(victim, func(it *Item) { doneCalls = append(doneCalls, it) })
	if got := fe.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d, want 1", got)
	}

	// Let the deadline expire while the slot is still held, then free
	// the slot: the dispatch refill must shed the victim, not run it.
	eng.Run(1.0)
	fe.Complete(blocker, Outcome{})

	if len(executed) != 1 {
		t.Fatalf("deadline-expired item was dispatched (executed %d items)", len(executed))
	}
	if !victim.WasShed() {
		t.Error("victim not marked shed")
	}
	if len(doneCalls) != 1 || doneCalls[0] != victim {
		t.Errorf("done callback calls = %v, want exactly the victim", doneCalls)
	}
	if len(shedHook) != 1 || shedHook[0] != victim {
		t.Errorf("OnShed calls = %v, want exactly the victim", shedHook)
	}
	// ShedClasses is indexed by class; only ClassLow was submitted.
	shed := fe.ShedClasses()
	var perClass uint64
	for _, n := range shed {
		perClass += n
	}
	if fe.Shed() != 1 || shed[ClassLow] != 1 || perClass != 1 {
		t.Errorf("shed counters = %d (per class %v), want 1, all of it ClassLow", fe.Shed(), shed)
	}
	if got := fe.QueueLen(); got != 0 {
		t.Errorf("QueueLen = %d after shed, want 0", got)
	}
	// The shed instant and wait are stamped.
	if victim.Complete != 1.0 || victim.Dispatch != 0 {
		t.Errorf("victim stamps: complete %v dispatch %v, want 1.0 and 0", victim.Complete, victim.Dispatch)
	}
	// Metrics must NOT count the shed as a completion.
	if m := fe.Metrics(); m.Completed != 1 {
		t.Errorf("Completed = %d, want 1 (the blocker only)", m.Completed)
	}
}

// TestShedQueuedImmediate pins the eager path the live gate's deadline
// timers use: ShedQueued withdraws a queued item on the spot.
func TestShedQueuedImmediate(t *testing.T) {
	eng := sim.NewEngine()
	var executed int
	fe := New(eng.Clock(), backendFunc(func(*Item) { executed++ }), 1, NewFIFO())

	blocker := &Item{}
	fe.Submit(blocker, nil)
	victim := &Item{}
	fe.Submit(victim, nil)

	if !fe.ShedQueued(victim) {
		t.Fatal("ShedQueued refused a queued item")
	}
	if fe.ShedQueued(victim) {
		t.Error("ShedQueued shed the same item twice")
	}
	if fe.CancelQueued(victim) {
		t.Error("CancelQueued withdrew a shed item")
	}
	if fe.Shed() != 1 || fe.QueueLen() != 0 {
		t.Errorf("shed %d queue %d, want 1 and 0", fe.Shed(), fe.QueueLen())
	}
	// Completing the blocker must not resurrect the shed item.
	fe.Complete(blocker, Outcome{})
	if executed != 1 {
		t.Errorf("executed %d items, want 1", executed)
	}
	// Dispatched items cannot be shed.
	next := &Item{}
	fe.Submit(next, nil)
	if fe.ShedQueued(next) {
		t.Error("ShedQueued withdrew a dispatched item")
	}
}

// TestClassLimitsPartition: with a {high: 1, low: 1} partition on an
// MPL-2 gate, a backlog of low work cannot starve the high class — the
// first freed slot goes to a waiting high item even under FIFO, because
// the low class is at its limit.
func TestClassLimitsPartition(t *testing.T) {
	eng := sim.NewEngine()
	var executed []*Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { executed = append(executed, it) }), 2, NewFIFO())
	fe.SetClassLimits(map[Class]int{ClassHigh: 1, ClassLow: 1})

	// Two low items fill the gate: one by right, one borrowed from the
	// idle high share (work conservation — capacity never idles).
	low := make([]*Item, 4)
	for i := range low {
		low[i] = &Item{Class: ClassLow}
		fe.Submit(low[i], nil)
	}
	if len(executed) != 2 {
		t.Fatalf("dispatched %d, want 2 (1 low share + 1 borrowed)", len(executed))
	}
	high := &Item{Class: ClassHigh}
	fe.Submit(high, nil)

	// Free one slot: with two more low items queued AHEAD of the high
	// one in FIFO order, the high item must still dispatch first — low
	// is at (indeed beyond) its limit.
	fe.Complete(executed[0], Outcome{})
	if len(executed) != 3 || executed[2] != high {
		t.Fatalf("freed slot went to %+v, want the high item", executed[len(executed)-1])
	}
	// Clearing the partition restores pure FIFO refill.
	fe.SetClassLimits(nil)
	fe.Complete(executed[1], Outcome{})
	if len(executed) != 4 || executed[3].Class != ClassLow {
		t.Fatalf("after clearing limits, freed slot went to %+v, want a low item", executed[len(executed)-1])
	}
}

// TestStrictPartitionNeverBorrows: under SetStrictPartition(true) a
// class at its limit holds even while capacity idles — the hard-cap
// mode the fairness controller's strict option drives. Relaxing back
// to work-conserving dispatches the deferred backlog at once.
func TestStrictPartitionNeverBorrows(t *testing.T) {
	eng := sim.NewEngine()
	var executed []*Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { executed = append(executed, it) }), 2, NewFIFO())
	fe.SetClassLimits(map[Class]int{ClassHigh: 1, ClassLow: 1})
	fe.SetStrictPartition(true)
	if !fe.StrictPartition() {
		t.Fatal("StrictPartition not reported")
	}

	// Two low items: the first takes the low share, the second must NOT
	// borrow the idle high slot — strict limits are hard caps.
	a, b := &Item{Class: ClassLow}, &Item{Class: ClassLow}
	fe.Submit(a, nil)
	fe.Submit(b, nil)
	if len(executed) != 1 {
		t.Fatalf("dispatched %d, want 1 (no borrowing under strict)", len(executed))
	}
	if got := fe.Inside(); got != 1 {
		t.Fatalf("Inside = %d, want 1 with a slot idling", got)
	}

	// A high arrival takes the idle high slot as usual.
	h := &Item{Class: ClassHigh}
	fe.Submit(h, nil)
	if len(executed) != 2 || executed[1] != h {
		t.Fatalf("high item not dispatched into its own share")
	}
	fe.Complete(h, Outcome{})
	if len(executed) != 2 {
		t.Fatalf("freed high slot went to deferred low work under strict")
	}

	// Relaxing to work-conserving lends the idle slot immediately.
	fe.SetStrictPartition(false)
	if len(executed) != 3 || executed[2] != b {
		t.Fatalf("relaxing strict did not dispatch the deferred low item")
	}
}

// TestClassLimitsValidation: limits below 1 are a programming error.
func TestClassLimitsValidation(t *testing.T) {
	eng := sim.NewEngine()
	fe := New(eng.Clock(), backendFunc(func(*Item) {}), 2, nil)
	defer func() {
		if recover() == nil {
			t.Error("zero class limit accepted")
		}
	}()
	fe.SetClassLimits(map[Class]int{ClassHigh: 0})
}

// TestClassPercentiles: per-class sketches split the response-time
// tail by class.
func TestClassPercentiles(t *testing.T) {
	eng := sim.NewEngine()
	var last *Item
	fe := New(eng.Clock(), backendFunc(func(it *Item) { last = it }), 1, nil)
	for i := 0; i < 20; i++ {
		class := ClassLow
		dur := 1.0
		if i%2 == 0 {
			class, dur = ClassHigh, 0.1
		}
		it := &Item{Class: class}
		fe.Submit(it, nil)
		eng.Run(eng.Now() + dur)
		fe.Complete(last, Outcome{InsideTime: dur})
	}
	hi := fe.ClassResponseTimePercentile(ClassHigh, 95)
	lo := fe.ClassResponseTimePercentile(ClassLow, 95)
	if hi <= 0 || lo <= 0 || hi >= lo {
		t.Errorf("class p95s: high %v, low %v — want 0 < high < low", hi, lo)
	}
	m := fe.Metrics()
	if all := m.Sketch(new(stats.Sketch)).Quantile(0.95); all < hi || all > lo {
		t.Errorf("overall p95 %v outside [%v, %v]", all, hi, lo)
	}
}
