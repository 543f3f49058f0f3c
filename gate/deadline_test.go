package gate

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAcquireDeadlineSheds: a waiter whose class deadline passes while
// the gate is full is rejected with ErrDeadline, holds no slot, and is
// counted in Stats.Shed — and the gate keeps working afterwards.
func TestAcquireDeadlineSheds(t *testing.T) {
	g, err := New(Config{Limit: 1, AdmitDeadline: map[Class]float64{ClassLow: 0.03}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	holder, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = g.Acquire(ctx)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("blocked Acquire returned %v, want ErrDeadline", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("shed took %v — the deadline timer did not fire eagerly", waited)
	}
	s := g.Stats()
	if s.Shed != 1 || s.Class(0).Shed != 1 || s.Class(1).Shed != 0 {
		t.Errorf("Shed counters = %d/%d/%d, want 1 total, 1 low, 0 high", s.Shed, s.Class(1).Shed, s.Class(0).Shed)
	}
	if g.Inflight() != 1 || g.Queued() != 0 {
		t.Errorf("inflight %d queued %d after shed, want 1 and 0", g.Inflight(), g.Queued())
	}
	holder.Release(Result{})
	// A class without a deadline still waits patiently.
	tk, err := g.Acquire(ctx)
	if err != nil {
		t.Fatalf("gate unusable after a shed: %v", err)
	}
	tk.Release(Result{})
}

// TestDeadlineShedAccounting hammers a full gate with deadline-bounded
// acquires from many goroutines under -race: every Acquire either
// succeeds or sheds, the counts reconcile exactly, and a shed ticket
// is never admitted.
func TestDeadlineShedAccounting(t *testing.T) {
	g, err := New(Config{Limit: 2, AdmitDeadline: map[Class]float64{ClassLow: 0.005}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const N = 200
	var ok, shed atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := g.Acquire(ctx)
			switch {
			case err == nil:
				time.Sleep(200 * time.Microsecond) // hold the slot briefly
				tk.Release(Result{})
				ok.Add(1)
			case errors.Is(err, ErrDeadline):
				shed.Add(1)
			default:
				t.Errorf("unexpected Acquire error: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := ok.Load() + shed.Load(); got != N {
		t.Fatalf("accounted %d of %d acquires", got, N)
	}
	s := g.Stats()
	if s.Shed != shed.Load() {
		t.Errorf("Stats.Shed = %d, callers saw %d ErrDeadline", s.Shed, shed.Load())
	}
	if uint64(s.Completed) != ok.Load() {
		t.Errorf("Stats.Completed = %d, callers saw %d successes", s.Completed, ok.Load())
	}
	if g.Inflight() != 0 || g.Queued() != 0 {
		t.Errorf("gate not drained: inflight %d queued %d", g.Inflight(), g.Queued())
	}
	if shed.Load() == 0 {
		t.Error("stress run shed nothing — deadline too loose to exercise the path")
	}
}

// TestClassLimitsLiveGate: the partition works on the wall-clock gate —
// with low at its limit, a freed slot admits the waiting high request
// ahead of earlier-queued low ones (FIFO policy, so only the class
// limits can reorder).
func TestClassLimitsLiveGate(t *testing.T) {
	g, err := New(Config{Limit: 2, ClassLimits: map[Class]int{ClassHigh: 1, ClassLow: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Fill the gate with low work (one slot by right, one borrowed).
	a, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan int, 3)
	acquire := func(id int, req Request) {
		tk, err := g.AcquireRequest(ctx, req)
		if err != nil {
			t.Errorf("acquire %d: %v", id, err)
			return
		}
		admitted <- id
		tk.Release(Result{})
	}
	go acquire(1, Request{Class: ClassLow})
	go acquire(2, Request{Class: ClassLow})
	// Let the low waiters queue first, then add the high one.
	waitFor(t, func() bool { return g.Queued() == 2 })
	go acquire(3, Request{Class: ClassHigh})
	waitFor(t, func() bool { return g.Queued() == 3 })

	// Free one slot: the high request must beat both queued low ones.
	a.Release(Result{})
	if first := <-admitted; first != 3 {
		t.Errorf("first admitted waiter = %d, want the high one (3)", first)
	}
	b.Release(Result{})
	<-admitted
	<-admitted
}

// TestSLOTunePrerequisites: the live SLO loop refuses gates it cannot
// steer, and accepts any gate with a limit to partition.
func TestSLOTunePrerequisites(t *testing.T) {
	g, err := New(Config{Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 0.1}); err == nil {
		t.Error("SLO tuning accepted a limit-1 gate")
	}
	g3, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g3.EnableSLOTune(SLOTuneConfig{Class: ClassHigh, Target: 0.1}); err != nil {
		t.Fatalf("SLO tuning refused a valid gate: %v", err)
	}
	st := g3.SLOTuneStatus()
	if !st.Enabled || st.SLOLimit+st.OtherLimit != 4 || st.SLOLimit < 1 || st.OtherLimit < 1 {
		t.Errorf("initial SLO partition broken: %+v", st)
	}
	if cl := g3.ClassLimits(); cl[ClassHigh]+cl[ClassLow] != 4 {
		t.Errorf("gate class limits %v do not cover the limit", cl)
	}
	g3.DisableSLOTune()
	if g3.SLOTuneStatus().Enabled {
		t.Error("SLO status still enabled after disable")
	}
}

// TestSLOTuneWaitsForItsOwnClass: with three tenants registered, an
// SLO on class 2 must not react before class 2 itself has completed
// its minimum share of the window, however much another class
// completes — the loop would otherwise steer on an unmeasured tail.
func TestSLOTuneWaitsForItsOwnClass(t *testing.T) {
	g, err := New(Config{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"batch", "web", "api"} {
		if _, err := g.RegisterClass(name, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.EnableSLOTune(SLOTuneConfig{Class: 2, Target: 0.1}); err != nil {
		t.Fatal(err)
	}
	complete := func(c Class, n int) {
		for i := 0; i < n; i++ {
			tk, err := g.AcquireRequest(context.Background(), Request{Class: c})
			if err != nil {
				t.Fatal(err)
			}
			tk.Release(Result{})
		}
	}
	complete(0, 60)
	if it := g.SLOTuneStatus().Iterations; it != 0 {
		t.Fatalf("SLO loop reacted %d times with no class-2 completions", it)
	}
	// Five class-2 completions (a tenth of the default 50-completion
	// window) close it.
	complete(2, 5)
	if it := g.SLOTuneStatus().Iterations; it != 1 {
		t.Errorf("SLO loop reacted %d times once class 2 was measured, want 1", it)
	}
}

// waitFor polls briefly for an asynchronous condition.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
